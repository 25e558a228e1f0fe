// Package cluster composes a set of greendimmd daemons into one logical
// simulation backend. It layers, bottom up:
//
//   - Client: a typed HTTP client for the daemon's job API (submit,
//     poll/wait, cancel, healthz) with per-attempt timeouts and capped
//     exponential backoff with jitter on transient failures (connection
//     errors, 429 queue-full — honoring the server's Retry-After hint —
//     and 5xx).
//   - Pool: a health scoreboard over the backends. It counts consecutive
//     transport failures, optionally probes /healthz on a period, and
//     leases work to the healthy backend with the fewest outstanding
//     jobs.
//   - Dispatcher: fans a slice of server.JobSpec across the pool,
//     failing a job over to the next backend when one misbehaves,
//     optionally hedging stragglers onto a second backend after a
//     latency threshold (first result wins, the loser is cancelled), and
//     falling back to in-process execution (server.Execute) when no
//     healthy backend remains. Its Overflow method is a daemon's
//     server.Config.Overflow hook: a job the full local queue turns away
//     runs on a healthy peer as an ordinary job of that daemon instead
//     of bouncing back as 429.
//
// The whole design leans on the repo-wide determinism invariant: a spec
// hash (server.SpecHash) fully determines the report bytes, at any
// parallelism, on any machine. That is what makes retries, hedges and
// the local fallback interchangeable — and it is checked, not assumed:
// the dispatcher fingerprints every result and errors out if two runs of
// the same spec hash ever disagree.
package cluster

import (
	"sync/atomic"

	"greendimm/internal/metrics"
)

// Counters aggregates dispatcher and client activity. All fields are
// atomics; read a consistent copy with Snapshot. One Counters instance
// is shared by a Pool's clients and its Dispatcher.
type Counters struct {
	// Submitted counts jobs handed to a backend (hedges included).
	Submitted atomic.Int64
	// Retries counts HTTP attempts beyond the first, across all calls —
	// the backoff loop inside Client.
	Retries atomic.Int64
	// Failovers counts jobs moved to a different backend after one
	// failed them (transport error, queue rejection, or a failed job
	// state).
	Failovers atomic.Int64
	// Hedges counts duplicate submissions launched after HedgeAfter.
	Hedges atomic.Int64
	// HedgeWins counts hedges whose copy finished first.
	HedgeWins atomic.Int64
	// LocalRuns counts in-process fallback executions.
	LocalRuns atomic.Int64
	// Divergences counts same-spec-hash result pairs whose report bytes
	// disagreed. Any nonzero value fails the dispatch.
	Divergences atomic.Int64
	// ProxiedJobs counts queue-overflow jobs Dispatcher.Overflow placed
	// on a peer.
	ProxiedJobs atomic.Int64
	// ShardJobs counts jobs a ShardRunner fanned out as cell-range
	// shards; Shards counts individual range executions.
	ShardJobs atomic.Int64
	Shards    atomic.Int64

	// AttemptSeconds, when non-nil, observes the wall latency of every
	// backend attempt the dispatcher makes — primaries, hedges, and
	// failover re-submissions alike, whether they win or lose. Lock-free;
	// share one histogram across the fleet.
	AttemptSeconds *metrics.Histogram
}

// CounterSnapshot is one consistent read of a Counters.
type CounterSnapshot struct {
	Submitted   int64 `json:"submitted"`
	Retries     int64 `json:"retries"`
	Failovers   int64 `json:"failovers"`
	Hedges      int64 `json:"hedges"`
	HedgeWins   int64 `json:"hedge_wins"`
	LocalRuns   int64 `json:"local_runs"`
	Divergences int64 `json:"divergences"`
	ProxiedJobs int64 `json:"proxied_jobs"`
	ShardJobs   int64 `json:"shard_jobs,omitempty"`
	Shards      int64 `json:"shards,omitempty"`

	// Attempt-latency summary from AttemptSeconds (zero when the
	// histogram is unset or empty).
	AttemptCount int64   `json:"attempt_count,omitempty"`
	AttemptP50S  float64 `json:"attempt_p50_s,omitempty"`
	AttemptP90S  float64 `json:"attempt_p90_s,omitempty"`
}

// Snapshot reads every counter.
func (c *Counters) Snapshot() CounterSnapshot {
	s := CounterSnapshot{
		Submitted:   c.Submitted.Load(),
		Retries:     c.Retries.Load(),
		Failovers:   c.Failovers.Load(),
		Hedges:      c.Hedges.Load(),
		HedgeWins:   c.HedgeWins.Load(),
		LocalRuns:   c.LocalRuns.Load(),
		Divergences: c.Divergences.Load(),
		ProxiedJobs: c.ProxiedJobs.Load(),
		ShardJobs:   c.ShardJobs.Load(),
		Shards:      c.Shards.Load(),
	}
	if h := c.AttemptSeconds; h.Count() > 0 {
		s.AttemptCount = h.Count()
		s.AttemptP50S = h.Quantile(0.5)
		s.AttemptP90S = h.Quantile(0.9)
	}
	return s
}
