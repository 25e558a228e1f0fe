// Package server implements greendimmd's simulation service: a bounded
// job queue feeding a worker pool, where each job is one deterministic
// simulation (a paper experiment or a parameterized §6.3 VM-server
// scenario) run on its own sim.Engine. Because identical specs always
// produce identical results, finished jobs are cached content-addressed
// by a canonical hash of the spec, and re-submissions are served without
// re-running the engine.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"greendimm/internal/exp"
)

// Job kinds.
const (
	KindExperiment = "experiment" // one of the paper's tables/figures
	KindVMServer   = "vmserver"   // parameterized §6.3 VM-consolidation run
)

// JobSpec is the wire form of one simulation job. Exactly one of
// Experiment and VMServer must be set, matching Kind.
type JobSpec struct {
	Kind       string          `json:"kind"`
	Experiment *ExperimentSpec `json:"experiment,omitempty"`
	VMServer   *exp.VMScenario `json:"vmserver,omitempty"`

	// Cells, when non-nil, restricts an experiment job to the sweep-cell
	// slice [Lo, Hi): the job runs only those cells and returns their
	// artifacts (Result.Cells) instead of a rendered report. Only
	// Shardable experiments accept it. Unlike the execution knobs below
	// it changes the result, so it IS part of the cache key; a nil Cells
	// leaves existing spec hashes unchanged.
	Cells *CellRangeSpec `json:"cells,omitempty"`

	// TimeoutSec bounds the job's wall-clock execution (0 = server
	// default, capped at the server maximum). An execution knob, not
	// part of the simulated world: it is excluded from the cache key.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`

	// Parallelism caps the fan-out of the job's internal experiment
	// sweeps (0 = serial, the default: the worker pool already
	// parallelizes across jobs). Extra sweep workers beyond the job's
	// own worker only run when the server's CPU budget has free slots,
	// so requesting a high value cannot oversubscribe the machine.
	// Sweep results are byte-identical at every parallelism, so — like
	// TimeoutSec — this is an execution knob excluded from the cache
	// key: specs differing only here share one cache entry.
	Parallelism int `json:"parallelism,omitempty"`

	// EngineShards is accepted and ignored, so specs written for the
	// removed channel-sharded engine (DESIGN.md §10) still decode under
	// DisallowUnknownFields. Values outside [0, MaxEngineShards] are
	// still rejected, and the field never enters the cache key.
	EngineShards int `json:"engine_shards,omitempty"`
}

// MaxJobParallelism bounds the per-job sweep fan-out a spec may request.
const MaxJobParallelism = 64

// MaxEngineShards bounds the ignored engine_shards field: it is outside
// input, so it is still range-checked.
const MaxEngineShards = 16

// CellRangeSpec is the wire form of a sweep cell range [Lo, Hi). The
// zero range is invalid on the wire: the empty count probe is internal
// to shard planning (exp.CellCount) and never crosses the API.
type CellRangeSpec struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// ExperimentSpec selects a registry experiment — the same ids and knobs
// as `greendimm -experiment <id> [-quick] [-seed n]`.
type ExperimentSpec struct {
	ID    string `json:"id"`
	Quick bool   `json:"quick,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
}

// cacheKeySpec is the hashed portion of a spec: everything that
// influences the simulation's output and nothing that doesn't.
type cacheKeySpec struct {
	Kind       string          `json:"kind"`
	Experiment *ExperimentSpec `json:"experiment,omitempty"`
	VMServer   *exp.VMScenario `json:"vmserver,omitempty"`
	Cells      *CellRangeSpec  `json:"cells,omitempty"`
}

// normalized validates the spec and returns it with defaults made
// explicit, so equivalent submissions share one cache entry.
func (s JobSpec) normalized() (JobSpec, error) {
	if s.TimeoutSec < 0 {
		return s, fmt.Errorf("timeout_sec %g must be >= 0", s.TimeoutSec)
	}
	if s.Parallelism < 0 || s.Parallelism > MaxJobParallelism {
		return s, fmt.Errorf("parallelism %d must be in [0, %d]", s.Parallelism, MaxJobParallelism)
	}
	if s.EngineShards < 0 || s.EngineShards > MaxEngineShards {
		return s, fmt.Errorf("engine_shards %d must be in [0, %d]", s.EngineShards, MaxEngineShards)
	}
	switch s.Kind {
	case KindExperiment:
		if s.Experiment == nil || s.VMServer != nil {
			return s, fmt.Errorf("kind %q requires the experiment payload and no vmserver payload", s.Kind)
		}
		e := *s.Experiment
		if e.Seed == 0 {
			e.Seed = 1 // the CLI's -seed default
		}
		if _, ok := exp.Registry()[e.ID]; !ok {
			return s, fmt.Errorf("unknown experiment %q", e.ID)
		}
		if c := s.Cells; c != nil {
			if !exp.Shardable(e.ID) {
				return s, fmt.Errorf("experiment %q does not support cell ranges (shardable: %v)",
					e.ID, exp.ShardableExperiments())
			}
			if c.Lo < 0 || c.Lo >= c.Hi {
				return s, fmt.Errorf("cells [%d,%d) must satisfy 0 <= lo < hi", c.Lo, c.Hi)
			}
		}
		s.Experiment = &e
	case KindVMServer:
		if s.VMServer == nil || s.Experiment != nil {
			return s, fmt.Errorf("kind %q requires the vmserver payload and no experiment payload", s.Kind)
		}
		if s.Cells != nil {
			return s, fmt.Errorf("kind %q does not support cell ranges", s.Kind)
		}
		v := s.VMServer.Normalized()
		if err := v.Validate(); err != nil {
			return s, err
		}
		s.VMServer = &v
	default:
		return s, fmt.Errorf("unknown kind %q (want %q or %q)", s.Kind, KindExperiment, KindVMServer)
	}
	return s, nil
}

// Normalize validates the spec and returns it with defaults made
// explicit — the exported entry point for out-of-process callers
// (internal/cluster) that must agree with the daemon on what "the same
// job" means.
func (s JobSpec) Normalize() (JobSpec, error) { return s.normalized() }

// SpecHash returns the content address of a spec: the hex SHA-256 of its
// normalized cache-key form. Two specs with equal SpecHash describe the
// same simulation and — determinism being the repo-wide invariant — must
// produce byte-identical reports, which is what the cluster merge
// cross-checks.
func SpecHash(s JobSpec) (string, error) {
	norm, err := s.normalized()
	if err != nil {
		return "", &InvalidSpecError{Err: err}
	}
	return norm.hash()
}

// hash returns the spec's content address: the hex SHA-256 of the
// normalized spec's canonical JSON. Call on the normalized form;
// encoding/json renders struct fields in declaration order, so the bytes
// are deterministic.
func (s JobSpec) hash() (string, error) {
	b, err := json.Marshal(cacheKeySpec{Kind: s.Kind, Experiment: s.Experiment, VMServer: s.VMServer, Cells: s.Cells})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
