package main

import (
	"fmt"
	"time"

	"greendimm/internal/exp"
	"greendimm/internal/report"
	"greendimm/internal/server"
	"greendimm/internal/sweep"
)

// selfTest runs every workload once at tiny size in both modes and fails
// if any metric BENCHMARK.json names is missing or has no unit, if any
// operation failed, or if the output checks do not flag a deliberately
// corrupted digest.
func selfTest(outDir string) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	for _, w := range []string{"energy", "tail", "vmday", "daemon"} {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 3, seconds: 1, trace: trace, tiny: true, outDir: outDir}
			res, err := run(cfg, time.Now())
			if err != nil {
				return fmt.Errorf("%s (trace %t): %w", w, trace, err)
			}
			listed := bf.EndToEnd
			if trace {
				listed = bf.PerLayer
			}
			if _, err := selectMetrics(res, listed); err != nil {
				return fmt.Errorf("%s (trace %t): %w", w, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				return fmt.Errorf("%s (trace %t): %d of %d operations failed", w, trace, res.Failed, res.Attempted)
			}
			fmt.Printf("self-test: %s trace=%t ok (%d operations)\n", w, trace, res.Attempted)
		}
	}
	return corruptedDigestsFlagged()
}

// corruptedDigestsFlagged checks that both output checks reject a
// digest with one character changed.
func corruptedDigestsFlagged() error {
	reg, err := regenerate("fig9", warmupSeed, sweep.NewMemo(0), exp.Hooks{})
	if err != nil {
		return err
	}
	check, err := newDigestCheck("energy")
	if err != nil {
		return err
	}
	if err := check.verify(warmupSeed, reg.digest); err != nil {
		return fmt.Errorf("the committed digest check rejects a correct report: %w", err)
	}
	check.committed["1"] = corrupt(check.committed["1"])
	check.first = map[int64]string{}
	if check.verify(warmupSeed, reg.digest) == nil {
		return fmt.Errorf("the committed digest check accepted a corrupted digest")
	}
	check = &digestCheck{first: map[int64]string{warmupSeed: corrupt(reg.digest)}}
	if check.verify(warmupSeed, reg.digest) == nil {
		return fmt.Errorf("the repeat check accepted a report that differs from the first")
	}

	m := newMix(1)
	v := server.JobView{ID: "j1", SpecHash: "h", State: server.StateSucceeded,
		Result: &server.Result{Text: "report", Tables: []*report.Table{report.NewTable("t", "c")}}}
	if err := m.check(v); err != nil {
		return err
	}
	m.digests["h"] = corrupt(m.digests["h"])
	if m.check(v) == nil {
		return fmt.Errorf("the daemon result check accepted a corrupted digest")
	}
	fmt.Println("self-test: corrupted digests flagged")
	return nil
}

// corrupt changes the first character of a hex digest.
func corrupt(d string) string {
	if d == "" {
		return "0"
	}
	c := byte('0')
	if d[0] == '0' {
		c = '1'
	}
	return string(c) + d[1:]
}
