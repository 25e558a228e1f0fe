package exp

import (
	"errors"
	"fmt"
	"sync"
)

// PredictKeys reports which memo keys the experiment's cells [lo, hi)
// would consult under o, without simulating: the run executes in
// key-probe mode (Options.KeyProbe), where every memoized() call records
// its key and returns a zero value immediately. Only the experiment's
// cheap pre-sweep setup and the probed cells' key construction execute.
//
// The prediction is a best-effort heuristic, not a contract: a cell
// whose body consults several keys with dependent intermediate math may
// report only a prefix (zero-value stand-ins can fail the code between
// memo calls), and execution knobs that never reach memo keys are
// irrelevant. Callers use the keys for warm-placement scoring and
// prefetch — paths where a missed key costs a recompute, never a wrong
// result. Keys are returned deduplicated, in first-observation order.
//
// Only Shardable experiments support ranges; like CellCount, hi == lo
// with both zero probes nothing and returns immediately.
func PredictKeys(id string, o Options, lo, hi int) ([]string, error) {
	fn := Registry()[id]
	if fn == nil {
		return nil, fmt.Errorf("exp: unknown experiment %q", id)
	}
	var (
		mu   sync.Mutex
		keys []string
		seen = map[string]bool{}
	)
	// A probe must never touch real execution state: no memo (it would
	// pollute it with zero values — memoized() short-circuits before the
	// memo, but clearing it keeps the invariant structural), no replay
	// source, no sink, serial walk (probing is microseconds per cell).
	o.Hooks = Hooks{}
	o.Parallelism = 1
	o.Memo, o.CellSink = nil, nil
	o.KeyProbe = func(key string) {
		mu.Lock()
		if !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
		mu.Unlock()
	}
	o.CellRange = &CellRange{Lo: lo, Hi: hi}
	_, _, err := fn(o)
	var rd *RangeDone
	if errors.As(err, &rd) {
		return keys, nil
	}
	if err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("exp: experiment %q ignored the probe range; not shardable", id)
}
