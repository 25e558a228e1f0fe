package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"greendimm/internal/exp"
	"greendimm/internal/report"
	"greendimm/internal/sweep"
)

// panel is how a simulation run picks the experiment seeds it
// regenerates: it cycles through n of them. A derived panel starts at the
// workload seed (seed, seed+1000, ...), so `--seed 1` starts with the
// report `greendimm -experiment <id> -quick` prints. vmday's panel is
// fixed (1, 1001, ...) and the workload seed only chooses where the cycle
// starts: a fig12 day's cost varies up to 3x between seeds and a run
// holds only about n regenerations, so runs with derived panels would
// differ by which days they drew rather than by how fast they ran.
type panel struct {
	n     int
	fixed bool
}

var panels = map[string]panel{"energy": {n: 16}, "tail": {n: 8}, "vmday": {n: 6, fixed: true}}

// heldOutSeed is the second workload seed with committed digests. It was
// not used while the benchmark was tuned.
const heldOutSeed = 97

// warmupSeed is the experiment seed of the untimed warm-up: the
// default-seed report, whose committed digest every run checks. It is
// the same for every workload seed, so set-up is the same work in every
// run.
const warmupSeed = 1

// expSeed is the experiment seed of the j-th regeneration of a run.
func expSeed(workload string, seed int64, j int) int64 {
	p := panels[workload]
	if p.fixed {
		return 1 + 1000*int64((uint64(seed)+uint64(j))%uint64(p.n))
	}
	return seed + 1000*int64(j%p.n)
}

//go:embed digests.json
var digestsJSON []byte

// committedDigests maps workload → experiment seed → SHA-256 of the
// report the CLI prints, for the panel seeds of workload seeds 1 and
// heldOutSeed.
func committedDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("decoding committed digests: %w", err)
	}
	return d, nil
}

// digestCheck is the output check of the simulation workloads: a report
// must match its committed digest where one exists, and every
// regeneration at one experiment seed must match the first of the
// invocation.
type digestCheck struct {
	committed map[string]string
	first     map[int64]string
}

func newDigestCheck(workload string) (*digestCheck, error) {
	all, err := committedDigests()
	if err != nil {
		return nil, err
	}
	return &digestCheck{committed: all[workload], first: map[int64]string{}}, nil
}

func (c *digestCheck) verify(seed int64, digest string) error {
	if want, ok := c.committed[strconv.FormatInt(seed, 10)]; ok && want != digest {
		return fmt.Errorf("seed %d: report digest %.12s differs from the committed %.12s", seed, digest, want)
	}
	if first, ok := c.first[seed]; ok && first != digest {
		return fmt.Errorf("seed %d: report digest %.12s differs from this run's first %.12s", seed, digest, first)
	}
	c.first[seed] = digest
	return nil
}

// renderReport prints a runner's output exactly as `greendimm
// -experiment <id>` does.
func renderReport(id string, tables []*report.Table, series []report.Series) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "=== %s ===\n", id)
	for _, t := range tables {
		fmt.Fprintln(&b, t)
	}
	for _, s := range series {
		fmt.Fprintf(&b, "  %-10s %s\n", s.Name, s.Sparkline(64))
	}
	fmt.Fprintln(&b)
	return b.Bytes()
}

// regeneration is one report regeneration's outcome.
type regeneration struct {
	digest string
	tables []*report.Table
}

// regenerate runs the registry runner once at the given experiment seed,
// with the memo and hooks given, and digests the rendered report.
func regenerate(id string, seed int64, memo *sweep.Memo, hooks exp.Hooks) (regeneration, error) {
	tables, series, err := exp.Registry()[id](exp.Options{
		Quick: true, Seed: seed, Parallelism: parallelism, Memo: memo, Hooks: hooks,
	})
	if err != nil {
		return regeneration{}, fmt.Errorf("%s seed %d: %w", id, seed, err)
	}
	sum := sha256.Sum256(renderReport(id, tables, series))
	return regeneration{digest: fmt.Sprintf("%x", sum), tables: tables}, nil
}

// codecMemo returns a fresh memo that can export and import entries, as
// `greendimm -memo-dir` builds it.
func codecMemo() *sweep.Memo {
	m := sweep.NewMemo(0)
	m.SetCodec(exp.MemoCodec())
	return m
}

// runSim measures one simulation workload. Set-up is everything before
// the first timed regeneration: process start, input generation and the
// untimed warm-up. The window then holds cold regenerations (each with a
// fresh memo, cycling the sub-seeds), each followed by warm regenerations
// in which every cell is served from a memo imported from the warm-up —
// the repeat invocation of `greendimm -memo-dir`. No exp.Hooks are
// installed.
// wall_s weighs every experiment seed the run regenerated equally: it is
// the mean over seeds of each seed's median regeneration time, so a seed
// drawn twice does not count twice and a burst of contention on the host
// is ignored; jobs_per_s is its reciprocal.
func runSim(cfg config, start time.Time) (*result, error) {
	id := workloads[cfg.workload]
	check, err := newDigestCheck(cfg.workload)
	if err != nil {
		return nil, err
	}
	res := newResult()
	warm := codecMemo()
	res.Attempted++
	first, err := regenerate(id, warmupSeed, warm, exp.Hooks{})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := check.verify(warmupSeed, first.digest); err != nil {
		res.fail("warm-up: %v", err)
	}
	printHeadline(id, first.tables)
	entries := warm.Export(nil)
	res.set("setup_s", time.Since(start).Seconds(), "s")

	warmRegen := func() float64 {
		res.Attempted++
		memo := codecMemo()
		t := time.Now()
		memo.Import(entries)
		reg, err := regenerate(id, warmupSeed, memo, exp.Hooks{})
		ms := time.Since(t).Seconds() * 1000
		switch {
		case err != nil:
			res.fail("warm-memo regeneration: %v", err)
		case memo.Computes() != 0:
			res.fail("warm-memo regeneration computed %d cells; every cell should come from the memo", memo.Computes())
		case reg.digest != first.digest:
			res.fail("warm-memo report digest %.12s differs from the computed %.12s", reg.digest, first.digest)
		}
		return ms
	}

	var hits []float64
	cold := map[int64][]float64{}  // experiment seed → regeneration seconds
	alloc := map[int64][]float64{} // experiment seed → MB allocated
	t0 := time.Now()
	for j := 0; j == 0 || (!cfg.tiny && time.Since(t0).Seconds() < cfg.seconds); j++ {
		seed := expSeed(cfg.workload, cfg.seed, j)
		res.Attempted++
		a := totalAlloc()
		t := time.Now()
		reg, err := regenerate(id, seed, sweep.NewMemo(0), exp.Hooks{})
		took := time.Since(t)
		alloc[seed] = append(alloc[seed], float64(totalAlloc()-a)/1e6)
		cold[seed] = append(cold[seed], took.Seconds())
		if err == nil {
			err = check.verify(seed, reg.digest)
		}
		if err != nil {
			res.fail("%v", err)
		}
		// Warm regenerations follow each cold one for a tenth of its time,
		// so that both kinds sample the whole window.
		for h := time.Now(); len(hits) == 0 || (!cfg.tiny && time.Since(h) < took/10); {
			hits = append(hits, warmRegen())
		}
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var all []float64
	for _, ts := range cold {
		all = append(all, ts...)
	}
	wall := seedMean(cold)
	res.set("wall_s", wall, "s")
	res.set("jobs_per_s", 1/wall, "1/s")
	res.set("alloc_mb_per_op", seedMean(alloc), "MB")
	res.set("peak_rss_mb", rss, "MB")
	res.set("hit_p50_ms", quantile(hits, 0.5), "ms")
	res.set("hit_p90_ms", quantile(hits, 0.9), "ms")
	res.set("job_p50_ms", quantile(all, 0.5)*1000, "ms")
	res.set("job_p90_ms", quantile(all, 0.9)*1000, "ms")
	res.set("regenerations", float64(len(all)), "count")
	res.set("seeds", float64(len(cold)), "count")
	res.set("warm_regenerations", float64(len(hits)), "count")
	return res, nil
}

// printHeadline prints the report's headline statistics beside the
// paper's values, as EXPERIMENTS.md records them.
func printHeadline(id string, tables []*report.Table) {
	cell := func(t *report.Table, row string, col int) float64 {
		for r := 0; r < t.Rows(); r++ {
			if t.Label(r) == row {
				v, _ := strconv.ParseFloat(t.Value(r, col), 64)
				return v
			}
		}
		return 0
	}
	const caveat = "(the model is otherwise not validated against hardware)"
	switch id {
	case "fig9":
		h := tables[len(tables)-1]
		fmt.Fprintf(os.Stderr, "headline fig9: mean DRAM savings %.1f%% SPEC (paper 38%%), %.1f%% datacenter (paper 60%%) %s\n",
			cell(h, "mean DRAM savings, SPEC %", 0), cell(h, "mean DRAM savings, datacenter %", 0), caveat)
	case "fig12":
		t := tables[0]
		fmt.Fprintf(os.Stderr, "headline fig12: %.1f off-lined blocks (paper 116), background cut %.1f%% (paper 46%%), %.1f%% with KSM (paper 70%%) %s\n",
			cell(t, "greendimm", 0), cell(t, "greendimm", 3), cell(t, "greendimm+ksm", 3), caveat)
	case "tail":
		fmt.Fprintf(os.Stderr, "headline tail: worst p99 inflation %.1f%% under a live daemon (paper: no notable p99 inflation) %s\n",
			cell(tables[1], "worst p99 inflation %", 0), caveat)
	}
}

// writeDigests prints the digests of every panel seed of workload seeds 1
// and heldOutSeed for each simulation workload — the content of
// digests.json.
// Regenerate the file only when a change is meant to alter reports.
func writeDigests() error {
	out := map[string]map[string]string{}
	for _, w := range []string{"energy", "tail", "vmday"} {
		out[w] = map[string]string{}
		for _, seed := range []int64{1, heldOutSeed} {
			for j := 0; j < panels[w].n; j++ {
				s := expSeed(w, seed, j)
				reg, err := regenerate(workloads[w], s, sweep.NewMemo(0), exp.Hooks{})
				if err != nil {
					return err
				}
				out[w][strconv.FormatInt(s, 10)] = reg.digest
			}
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
