package exp

import (
	"fmt"

	"greendimm/internal/workload"
)

// This file is the experiment layer's seam onto sweep.Memo and the cell
// artifact machinery (cells.go): one wrapper per memoizable baseline
// cell, each building a key from every config field that influences the
// cell's result (hooks are execution-only and excluded). The
// determinism contract makes memoization result-neutral: a cell is a
// pure function of its key, so serving a stored result is
// indistinguishable from recomputing it — TestMemoDeterminism holds
// rendered reports byte-identical with the memo off, cold, and shared.

// memoized resolves one cell under key: the memo, else a fresh
// compute. Every resolution, computed or memo hit (a replayed artifact
// imported into the memo included), is offered to the sink as a
// canonical artifact; the job journal skips keys it already holds. A
// zero Options computes directly, so call sites thread Options without
// branching.
func memoized[T any](o Options, key string, compute func() (T, error)) (T, error) {
	if o.KeyProbe != nil {
		// Key-probe mode (PredictKeys): record which memo keys the cell
		// would consult and skip all simulation. The zero value stands in
		// for the real result; probe sweeps swallow downstream errors.
		o.KeyProbe(key)
		var zero T
		return zero, nil
	}
	var v T
	var err error
	if m := o.Memo; m != nil {
		var av any
		av, err = m.Do(key, func() (any, error) { return compute() })
		if err == nil {
			v = av.(T)
		}
	} else {
		v, err = compute()
	}
	if err != nil {
		var zero T
		return zero, err
	}
	if o.CellSink != nil {
		if raw, ok := encodeCell(v); ok {
			o.CellSink(CellArtifact{Key: key, Value: raw})
		}
	}
	return v, nil
}

// profFP fingerprints a workload profile for memo keys. Profiles are
// flat value structs, so the %+v rendering covers every field that can
// influence a run.
func profFP(p workload.Profile) string {
	return fmt.Sprintf("%+v", p)
}

// memoTiming memoizes runTiming by its full configuration.
func memoTiming(o Options, cfg timingConfig) (TimingRun, error) {
	key := fmt.Sprintf("timing|%s|intlv=%t|copies=%d|acc=%d|seed=%d",
		profFP(cfg.prof), cfg.interleaved, cfg.copies, cfg.accesses, cfg.seed)
	return memoized(o, key, func() (TimingRun, error) { return runTiming(cfg) })
}

// memoDynamics memoizes runDynamics by its full configuration.
func memoDynamics(o Options, cfg dynamicsConfig) (DynamicsRun, error) {
	key := fmt.Sprintf("dynamics|%s|block=%d|dur=%d|policy=%s|movable=%d|group=%d|fail=%g|leak=%d|seed=%d",
		profFP(cfg.prof), cfg.blockMB, int64(cfg.duration), cfg.policy.Fingerprint(),
		cfg.movableGB, cfg.groupMB, cfg.failProb, cfg.leakEvery, cfg.seed)
	return memoized(o, key, func() (DynamicsRun, error) { return runDynamics(cfg) })
}

// memoVMDay memoizes a 24-hour VM-trace day — the heaviest shared cell:
// fig12 and fig13 run the identical (greendimm, ksm, horizon, seed) days.
func memoVMDay(o Options, cfg vmDayConfig) (VMDayResult, error) {
	key := fmt.Sprintf("vmday|ksm=%t|gd=%t|h=%d|seed=%d",
		cfg.withKSM, cfg.withGreenDIMM, int64(cfg.horizon), cfg.seed)
	return memoized(o, key, func() (VMDayResult, error) { return runVMDay(cfg) })
}

// tailCell is runService's memoizable output. Fields are exported
// because the cell doubles as a durable artifact: it must survive a
// JSON round trip bit-exactly for shard execution and crash recovery.
type tailCell struct {
	Stats  tailStats
	Events int64
}

// memoTailService memoizes one tail-latency service run. Options.Quick
// is deliberately absent from the key: runService uses a fixed horizon
// (see the comment there), so Quick does not influence its result.
func memoTailService(o Options, prof workload.Profile, withDaemon bool) (tailCell, error) {
	key := fmt.Sprintf("tailsvc|%s|daemon=%t|seed=%d", profFP(prof), withDaemon, o.Seed)
	return memoized(o, key, func() (tailCell, error) {
		st, events, err := runService(prof, withDaemon, o)
		return tailCell{Stats: st, Events: events}, err
	})
}
