// Command greendimm regenerates the paper's tables and figures from the
// simulator. Each experiment id matches DESIGN.md's per-experiment index.
//
// Usage:
//
//	greendimm -experiment fig12            # one experiment
//	greendimm -experiment all -quick       # everything, reduced horizons
//	greendimm -spec jobs.json              # run a JSON job-spec file
//	greendimm -policy-config policy.json   # run a configured selection policy on a VM day
//	greendimm -experiment all -backends http://a:8080,http://b:8080
//
// With -backends, jobs are dispatched across the given greendimmd
// daemons (internal/cluster): health-aware routing, retries with
// backoff, optional hedging of stragglers, and in-process fallback when
// every backend is down. Results are byte-identical to local runs — the
// dispatcher verifies this whenever a spec executes more than once.
//
// Every mode builds a list of job specs — -experiment one per selected
// experiment, the same specs greendimmd accepts — and validates them all
// before the first runs. Without -backends each spec then runs on
// greendimmd's in-process runner at its own parallelism, against one memo
// for the whole invocation, and its report prints as it finishes.
//
// With -memo-dir, local runs journal into that directory the way
// greendimmd journals jobs into its -store-dir: each spec is one job
// record holding the sweep cells the run resolved. The next invocation
// warms its memo from every journaled cell, so repeated quick iterations
// skip the shared baselines, and the directory is a valid greendimmd
// -store-dir that boots warm (and resumes a run that was cut off).
// -memo-dir journals local runs only: with -backends it exits 2.
//
// -seed 0 is rejected: a job spec's seed 0 means seed 1, so no spec,
// trace or journal record could name seed 0.
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"greendimm/internal/cluster"
	"greendimm/internal/exp"
	"greendimm/internal/obs"
	"greendimm/internal/report"
	"greendimm/internal/server"
	"greendimm/internal/store"
	"greendimm/internal/sweep"
)

func main() {
	var (
		which      = flag.String("experiment", "all", "experiment id (fig1..fig13, tab1..tab3, all)")
		quick      = flag.Bool("quick", false, "reduced horizons (faster, noisier)")
		seed       = flag.Int64("seed", 1, "random seed (nonzero)")
		parallel   = flag.Int("parallel", 0, "sweep worker goroutines per experiment (0 = all CPUs, 1 = serial; output is identical either way)")
		csvDir     = flag.String("csv", "", "also write each table as CSV into this directory")
		specFile   = flag.String("spec", "", "run a JSON job-spec file (one spec object or an array) instead of -experiment")
		policyFile = flag.String("policy-config", "", "run a JSON policy config file (a block-selection pipeline plus an optional VM scenario) instead of -experiment")
		backends   = flag.String("backends", "", "comma-separated greendimmd base URLs; jobs run remotely with routing, retries and hedging (in-process fallback if all are down)")
		hedgeAfter = flag.Duration("hedge-after", 30*time.Second, "with -backends: duplicate an unfinished job onto a second backend after this long (0 disables hedging)")
		traceOut   = flag.String("trace-out", "", "write a JSON execution trace (per-cell spans; with -backends also attempts/hedges/backoffs) to this file")
		memoDir    = flag.String("memo-dir", "", "job-journal directory for local runs (the format of greendimmd -store-dir): warm the memo from the sweep cells journaled there and journal each run's cells, so repeated invocations skip shared baselines")
	)
	flag.Parse()
	if err := checkFlags(*seed, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *memoDir != "" && *backends != "" {
		fmt.Fprintln(os.Stderr, "-memo-dir journals local runs; it cannot be combined with -backends")
		os.Exit(2)
	}
	urls := splitURLs(*backends)
	if *backends != "" && len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "-backends is set but holds no URLs")
		os.Exit(2)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	var labels []string
	var specs []server.JobSpec
	switch {
	case *policyFile != "":
		pc, err := server.LoadPolicyConfig(*policyFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		spec := pc.JobSpec()
		spec.Parallelism = *parallel
		labels, specs = []string{"policy:" + pc.Policy.Fingerprint()}, []server.JobSpec{spec}
	case *specFile != "":
		var err error
		if specs, err = loadSpecs(*specFile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		labels = specLabels(specs)
	default:
		labels, specs = experimentSpecs(*which, *quick, *seed, *parallel)
	}
	for i, spec := range specs {
		norm, err := spec.Normalize()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", labels[i], err)
			os.Exit(2)
		}
		specs[i] = norm
	}

	memo, journal, closeJournal := openMemoDir(*memoDir)
	err := runSpecs(os.Stdout, labels, specs, urls, *hedgeAfter, localRunner(memo, journal), *csvDir, *traceOut)
	closeJournal()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// checkFlags rejects flag values that have no meaning.
func checkFlags(seed int64, parallel int) error {
	if seed == 0 {
		return errors.New("-seed must be nonzero: a job spec's seed 0 means seed 1")
	}
	if parallel < 0 {
		return errors.New("-parallel must be >= 0")
	}
	return nil
}

// openMemoDir builds the invocation's one memo: with -experiment all,
// figures that share baseline cells (fig12/fig13's traced day, the block
// sweep's dynamics runs) compute them once. It is unbounded: all of
// -experiment all -quick resolves 112 keys. With a dir it also opens dir
// as a job journal and warms the memo from every cell the journal
// retains, through the verified codec the daemon's boot uses
// (server.WarmMemo), and returns the journal with the function that
// closes it; without one the journal is nil and the function a no-op.
func openMemoDir(dir string) (*sweep.Memo, *store.Store, func()) {
	memo := sweep.NewMemo(0)
	memo.SetCodec(exp.MemoCodec())
	if dir == "" {
		return memo, nil, func() {}
	}
	journal, err := store.Open(dir, store.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if n := server.WarmMemo(memo, journal); n > 0 {
		fmt.Fprintf(os.Stderr, "memo: %d entries loaded from %s\n", n, dir)
	}
	before := len(journal.Cells())
	return memo, journal, func() {
		fmt.Fprintf(os.Stderr, "memo: %d cells computed, %d new cells journaled to %s\n",
			memo.Computes(), len(journal.Cells())-before, dir)
		if err := journal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "memo: closing %s: %v\n", dir, err)
		}
	}
}

// localRunner returns greendimmd's in-process runner over memo. Its
// budget of MaxJobParallelism extra sweep workers never throttles a
// spec, so each runs at its own parallelism. A non-nil journal records
// each run (runJournaled).
func localRunner(memo *sweep.Memo, journal *store.Store) func(server.JobSpec, server.RunHooks) (*server.Result, error) {
	run := server.Config{Workers: 1, CPUBudget: 1 + server.MaxJobParallelism, Memo: memo}.BaseRunner()
	return func(spec server.JobSpec, h server.RunHooks) (*server.Result, error) {
		return runJournaled(journal, spec, h, run)
	}
}

// runJournaled runs one normalized spec on run. With a journal it
// records the run the way greendimmd's execute records a job in its
// store: Accept under the spec's hash, each cell the run resolves
// through RunHooks.CellObserved into PutCell, then Finish, merged or
// failed. A run cut off before Finish (Ctrl-C) leaves its record
// accepted, as a crash leaves a daemon's job: greendimmd started on the
// directory resumes it from its journaled cells, and the next run of
// the spec finishes it. A failed journal write is reported and never
// fails the run: the journal only saves later work.
func runJournaled(journal *store.Store, spec server.JobSpec, h server.RunHooks, run func(server.JobSpec, server.RunHooks) (*server.Result, error)) (*server.Result, error) {
	if journal == nil {
		return run(spec, h)
	}
	hash, err := server.SpecHash(spec)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	warn := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "memo: %v\n", err)
		}
	}
	warn(journal.Accept(hash, raw))
	h.CellObserved = func(a exp.CellArtifact) { warn(journal.PutCell(hash, a.Key, a.Value)) }
	res, err := run(spec, h)
	if err != nil {
		warn(journal.Finish(hash, store.StateFailed, err.Error()))
		return nil, err
	}
	warn(journal.Finish(hash, store.StateMerged, ""))
	return res, nil
}

// runSpecs runs normalized specs and prints each report to w: across
// the backends at urls through the cluster dispatcher when any are
// given, else one by one on run, each report printed as it finishes.
// With traceOut, each spec records an execution trace and the labeled
// set is written there as JSON.
func runSpecs(w io.Writer, labels []string, specs []server.JobSpec, urls []string, hedgeAfter time.Duration,
	run func(server.JobSpec, server.RunHooks) (*server.Result, error), csvDir, traceOut string) error {
	traces := make([]*obs.Trace, len(specs))
	if traceOut != "" {
		for i := range traces {
			traces[i] = obs.NewTrace(0)
		}
	}
	report := func(i int, res *server.Result) error {
		fmt.Fprintf(w, "=== %s ===\n%s\n", labels[i], res.Text)
		for ti, t := range res.Tables {
			if err := maybeCSV(csvDir, labels[i], ti, t); err != nil {
				return err
			}
		}
		return nil
	}
	if len(urls) > 0 {
		pool := cluster.NewPool(urls, cluster.PoolConfig{})
		pool.Start()
		defer pool.Stop()
		d := cluster.NewDispatcher(pool, cluster.Options{HedgeAfter: hedgeAfter})
		results, err := d.RunTraced(context.Background(), specs, traces)
		if err != nil {
			return err
		}
		c := d.Counters()
		fmt.Fprintf(os.Stderr, "cluster: %d submitted, %d retries, %d failovers, %d hedges (%d won), %d local\n",
			c.Submitted, c.Retries, c.Failovers, c.Hedges, c.HedgeWins, c.LocalRuns)
		for i, res := range results {
			if err := report(i, res); err != nil {
				return err
			}
		}
	} else {
		for i, spec := range specs {
			res, err := run(spec, server.RunHooks{Trace: traces[i]})
			if err != nil {
				return fmt.Errorf("%s: %w", labels[i], err)
			}
			if err := report(i, res); err != nil {
				return err
			}
		}
	}
	if traceOut == "" {
		return nil
	}
	return writeTraces(traceOut, labels, traces)
}

// writeTraces dumps the label → trace map as indented JSON.
func writeTraces(path string, labels []string, traces []*obs.Trace) error {
	out := make(map[string]obs.TraceView, len(traces))
	for i, tr := range traces {
		out[labels[i]] = tr.View()
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding traces: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// experimentSpecs turns the CLI's experiment selection into job specs
// labeled by id, sorted; all is one id per underlying run, without the
// aliases. A parallel of 0 means all CPUs, since a spec's own 0 means a
// serial sweep.
func experimentSpecs(which string, quick bool, seed int64, parallel int) ([]string, []server.JobSpec) {
	if parallel == 0 {
		parallel = runtime.NumCPU()
	}
	parallel = min(parallel, server.MaxJobParallelism)
	ids := []string{which}
	if which == "all" {
		ids = exp.CanonicalExperiments()
		sort.Strings(ids)
	}
	experiments := exp.Registry()
	specs := make([]server.JobSpec, len(ids))
	for i, id := range ids {
		if _, ok := experiments[id]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, known())
			os.Exit(2)
		}
		specs[i] = server.JobSpec{
			Kind:        server.KindExperiment,
			Experiment:  &server.ExperimentSpec{ID: id, Quick: quick, Seed: seed},
			Parallelism: parallel,
		}
	}
	return ids, specs
}

// loadSpecs reads a spec file holding one JSON spec object or an array.
func loadSpecs(path string) ([]server.JobSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []server.JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&list); err == nil {
		return list, nil
	}
	var one server.JobSpec
	dec = json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&one); err != nil {
		return nil, fmt.Errorf("%s: neither a spec array nor a spec object: %v", path, err)
	}
	return []server.JobSpec{one}, nil
}

// specLabels names file-loaded specs for output headers.
func specLabels(specs []server.JobSpec) []string {
	labels := make([]string, len(specs))
	for i, s := range specs {
		switch {
		case s.Experiment != nil:
			labels[i] = s.Experiment.ID
		case s.VMServer != nil:
			labels[i] = fmt.Sprintf("vmserver[%d]", i)
		default:
			labels[i] = fmt.Sprintf("spec[%d]", i)
		}
	}
	return labels
}

// splitURLs parses a comma-separated URL list, dropping empties.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// maybeCSV exports one table when -csv is set and the table has rows.
func maybeCSV(dir, label string, idx int, t *report.Table) error {
	if dir == "" || t.Rows() == 0 {
		return nil
	}
	path := filepath.Join(dir, fmt.Sprintf("%s_%d.csv", label, idx))
	if err := writeCSV(path, t); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// writeCSV exports one table.
func writeCSV(path string, t *report.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write(append([]string{"label"}, t.Columns...)); err != nil {
		return err
	}
	for r := 0; r < t.Rows(); r++ {
		rec := []string{t.Label(r)}
		for c := range t.Columns {
			rec = append(rec, t.Value(r, c))
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return w.Error()
}

func known() string {
	return strings.Join(exp.KnownExperiments(), ", ")
}
