package server

import (
	"encoding/json"
	"testing"

	"greendimm/internal/core"
	"greendimm/internal/exp"
)

// FuzzJobSpecHash probes the content-address contract the cluster layer
// leans on: for any spec that normalizes, (1) normalization is
// idempotent, (2) the hash of the normalized form equals the hash of the
// original, (3) the execution knobs Parallelism and TimeoutSec, and the
// accepted-and-ignored EngineShards field, never change the hash, since
// specs differing only there must share a cache entry, and (4) for
// legacy-named policies the bare string and equivalent structured
// policy object hash identically.
func FuzzJobSpecHash(f *testing.F) {
	f.Add("experiment", "fig12", true, int64(7), false, false, 2.5, int64(3), 0.0, 4, 2, 12.0, "", "", "", 0.0)
	f.Add("vmserver", "", false, int64(0), true, true, 0.25, int64(1), 0.5, 0, 0, 0.0, "removable-first", "", "", 0.0)
	f.Add("experiment", "hwcost", false, int64(0), false, true, 1.0, int64(9), 0.0, 64, 16, 0.0, "", "", "", 0.0)
	f.Add("vmserver", "tab2", true, int64(-4), false, false, 0.0, int64(0), 1.5, 1, 4, 3600.0, "random", "idle-age", "", 0.0)
	f.Add("bogus", "fig1", false, int64(2), true, false, 24.0, int64(5), 0.0, 7, -1, 1.0, "", "", "", 0.0)
	f.Add("vmserver", "", false, int64(0), true, true, 0.25, int64(1), 0.0, 0, 0, 0.0, "age-threshold", "idle-age", "min_idle_s", 3.0)
	f.Add("vmserver", "", false, int64(0), false, true, 0.1, int64(2), 0.0, 0, 0, 0.0, "heat-tier", "access-count", "halflife_s", 20.0)
	f.Add("vmserver", "", false, int64(0), false, true, 0.1, int64(2), 0.0, 0, 0, 0.0, "hysteresis", "", "hold_s", -5.0)
	f.Add("vmserver", "", false, int64(0), false, true, 0.1, int64(2), 0.0, 0, 0, 0.0, "free-first", "idle-age", "", 0.0)

	f.Fuzz(func(t *testing.T, kind, expID string, quick bool, expSeed int64,
		ksm, greendimm bool, hours float64, vmSeed int64, volatility float64,
		parallelism, engineShards int, timeoutSec float64,
		polName, polTracker, polParam string, polValue float64) {
		spec := JobSpec{Kind: kind, Parallelism: parallelism,
			EngineShards: engineShards, TimeoutSec: timeoutSec}
		switch kind {
		case KindExperiment:
			spec.Experiment = &ExperimentSpec{ID: expID, Quick: quick, Seed: expSeed}
		case KindVMServer:
			policy := core.PolicySpec{Name: polName, Tracker: polTracker}
			if polParam != "" {
				policy.Params = map[string]float64{polParam: polValue}
			}
			spec.VMServer = &exp.VMScenario{KSM: ksm, GreenDIMM: greendimm,
				Hours: hours, Seed: vmSeed, PageVolatility: volatility,
				Policy: policy}
		}

		norm, err := spec.Normalize()
		if err != nil {
			// Invalid specs must be rejected consistently by the hash too.
			if _, herr := SpecHash(spec); herr == nil {
				t.Fatalf("Normalize rejected %+v (%v) but SpecHash accepted it", spec, err)
			}
			return
		}

		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("normalization not idempotent: re-normalizing %+v failed: %v", norm, err)
		}
		h1, err := SpecHash(spec)
		if err != nil {
			t.Fatalf("SpecHash(original) after successful Normalize: %v", err)
		}
		h2, err := SpecHash(norm)
		if err != nil {
			t.Fatalf("SpecHash(normalized): %v", err)
		}
		h3, err := SpecHash(again)
		if err != nil {
			t.Fatalf("SpecHash(re-normalized): %v", err)
		}
		if h1 != h2 || h2 != h3 {
			t.Fatalf("hash not stable under normalization: %s / %s / %s", h1, h2, h3)
		}

		// Execution knobs must never shift the content address.
		knobbed := spec
		knobbed.Parallelism = (parallelism + 1) % (MaxJobParallelism + 1)
		knobbed.EngineShards = (engineShards + 1) % (MaxEngineShards + 1)
		knobbed.TimeoutSec = timeoutSec + 17
		h4, err := SpecHash(knobbed)
		if err != nil {
			t.Fatalf("SpecHash with changed execution knobs: %v", err)
		}
		if h4 != h1 {
			t.Fatalf("execution knobs changed the hash: %s -> %s", h1, h4)
		}

		// The policy field must round-trip through its JSON wire form
		// without moving the hash: re-parsing the normalized spec's JSON
		// (bare string for legacy policies, object otherwise) is the same
		// job.
		if spec.VMServer != nil {
			wire, err := json.Marshal(norm)
			if err != nil {
				t.Fatalf("marshal normalized spec: %v", err)
			}
			var reparsed JobSpec
			if err := json.Unmarshal(wire, &reparsed); err != nil {
				t.Fatalf("re-parse normalized spec %s: %v", wire, err)
			}
			h5, err := SpecHash(reparsed)
			if err != nil {
				t.Fatalf("SpecHash(re-parsed): %v", err)
			}
			if h5 != h1 {
				t.Fatalf("JSON round trip changed the hash: %s -> %s (wire %s)", h1, h5, wire)
			}
		}
	})
}
