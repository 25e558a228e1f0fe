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
// With -memo-dir, local registry runs journal into that directory the
// way greendimmd journals jobs into its -store-dir: each experiment is
// one job record holding the sweep cells the run resolved. The next
// invocation warms its memo from every journaled cell, so repeated
// quick iterations skip the shared baselines, and the directory is a
// valid greendimmd -store-dir that boots warm (and resumes a run that
// was cut off).
//
// -seed 0 is rejected: a job spec's seed 0 means seed 1, so the spec
// paths (-trace-out, -backends, the -memo-dir journal) could not name
// the seed the local registry path would run.
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
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	switch {
	case *policyFile != "":
		pc, err := server.LoadPolicyConfig(*policyFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		spec := pc.JobSpec()
		spec.Parallelism = *parallel
		runSpecs(os.Stdout, []string{"policy:" + pc.Policy.Fingerprint()}, []server.JobSpec{spec},
			*backends, *hedgeAfter, *csvDir, *traceOut)
	case *specFile != "":
		specs, err := loadSpecs(*specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runSpecs(os.Stdout, specLabels(specs), specs, *backends, *hedgeAfter, *csvDir, *traceOut)
	case *backends != "" || *traceOut != "":
		// Tracing needs the spec path: runSpecs threads an obs.Trace
		// through execution, which the registry path has no seam for.
		labels, specs := experimentSpecs(*which, *quick, *seed, *parallel)
		runSpecs(os.Stdout, labels, specs, *backends, *hedgeAfter, *csvDir, *traceOut)
	default:
		opts := exp.Options{Quick: *quick, Seed: *seed, Parallelism: *parallel}
		journal, closeJournal := openMemoDir(*memoDir, &opts)
		runLocalRegistry(os.Stdout, *which, opts, *csvDir, journal)
		closeJournal()
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

// openMemoDir opens dir as a job journal, warms a fresh memo in
// opts.Memo from every cell the journal retains, and returns the
// journal with the function that closes it. With an empty dir it
// returns a nil journal and a no-op: runLocalRegistry then builds its
// own in-memory memo. The memo imports cells through the same verified
// codec the daemon's boot uses (server.WarmMemo).
func openMemoDir(dir string, opts *exp.Options) (*store.Store, func()) {
	if dir == "" {
		return nil, func() {}
	}
	journal, err := store.Open(dir, store.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	memo := sweep.NewMemo(0)
	memo.SetCodec(exp.MemoCodec())
	if n := server.WarmMemo(memo, journal); n > 0 {
		fmt.Fprintf(os.Stderr, "memo: %d entries loaded from %s\n", n, dir)
	}
	opts.Memo = memo
	before := len(journal.Cells())
	return journal, func() {
		if n := len(journal.Cells()) - before; n > 0 {
			fmt.Fprintf(os.Stderr, "memo: %d new cells journaled to %s\n", n, dir)
		}
		if err := journal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "memo: closing %s: %v\n", dir, err)
		}
	}
}

// runJournaled runs one registry experiment. With a journal it records
// the run the way greendimmd records a job in its store: Accept under
// the experiment spec's hash, each cell the run resolves through
// PutCell, then Finish, merged or failed. A run cut off before Finish
// (Ctrl-C) leaves its record accepted, as a crash leaves a daemon's
// job: greendimmd started on the directory resumes it from its
// journaled cells, and the next run of the experiment finishes it. A
// failed journal write is reported and never fails the run: the
// journal only saves later work.
func runJournaled(journal *store.Store, id string, fn exp.Runner, opts exp.Options) ([]*report.Table, []report.Series, error) {
	if journal == nil {
		return fn(opts)
	}
	spec, err := server.JobSpec{
		Kind:       server.KindExperiment,
		Experiment: &server.ExperimentSpec{ID: id, Quick: opts.Quick, Seed: opts.Seed},
	}.Normalize()
	if err != nil {
		return nil, nil, err
	}
	hash, err := server.SpecHash(spec)
	if err != nil {
		return nil, nil, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, err
	}
	warn := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "memo: %v\n", err)
		}
	}
	warn(journal.Accept(hash, raw))
	opts.CellSink = func(a exp.CellArtifact) { warn(journal.PutCell(hash, a.Key, a.Value)) }
	tables, series, err := fn(opts)
	if err != nil {
		warn(journal.Finish(hash, store.StateFailed, err.Error()))
		return nil, nil, err
	}
	warn(journal.Finish(hash, store.StateMerged, ""))
	return tables, series, nil
}

// runLocalRegistry is the classic in-process path: each experiment runs
// on this machine's registry runner, its report printed to w. A non-nil
// journal (-memo-dir) records each run (runJournaled).
func runLocalRegistry(w io.Writer, which string, opts exp.Options, csvDir string, journal *store.Store) {
	experiments := exp.Registry()
	// One memo across the whole selection: with -experiment all, figures
	// that share baseline cells (fig12/fig13's traced day, the block
	// sweep's dynamics runs) compute them once. Result-neutral — see
	// exp.Options.Memo.
	if opts.Memo == nil {
		opts.Memo = sweep.NewMemo(0)
	}
	for _, id := range experimentIDs(which) {
		fn, ok := experiments[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, known())
			os.Exit(2)
		}
		fmt.Fprintf(w, "=== %s ===\n", id)
		tables, series, err := runJournaled(journal, id, fn, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		for ti, t := range tables {
			fmt.Fprintln(w, t)
			if err := maybeCSV(csvDir, id, ti, t); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		for _, s := range series {
			fmt.Fprintf(w, "  %-10s %s\n", s.Name, s.Sparkline(64))
		}
		fmt.Fprintln(w)
	}
}

// runSpecs executes job specs — remotely when backends are given, else
// in-process via server.Execute — and prints each report to w the way
// the local path does. With traceOut, each spec records an execution trace
// and the labeled set is written there as JSON.
func runSpecs(w io.Writer, labels []string, specs []server.JobSpec, backends string, hedgeAfter time.Duration, csvDir, traceOut string) {
	var traces []*obs.Trace
	if traceOut != "" {
		traces = make([]*obs.Trace, len(specs))
		for i := range traces {
			traces[i] = obs.NewTrace(0)
		}
	}
	var results []*server.Result
	if backends != "" {
		urls := splitURLs(backends)
		if len(urls) == 0 {
			fmt.Fprintln(os.Stderr, "-backends is set but holds no URLs")
			os.Exit(2)
		}
		pool := cluster.NewPool(urls, cluster.PoolConfig{})
		pool.Start()
		defer pool.Stop()
		d := cluster.NewDispatcher(pool, cluster.Options{HedgeAfter: hedgeAfter})
		var err error
		results, err = d.RunTraced(context.Background(), specs, traces)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		c := d.Counters()
		fmt.Fprintf(os.Stderr, "cluster: %d submitted, %d retries, %d failovers, %d hedges (%d won), %d local\n",
			c.Submitted, c.Retries, c.Failovers, c.Hedges, c.HedgeWins, c.LocalRuns)
	} else {
		for i, spec := range specs {
			var h server.RunHooks
			if traces != nil {
				h.Trace = traces[i]
			}
			res, err := server.Execute(spec, h)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", labels[i], err)
				os.Exit(1)
			}
			results = append(results, res)
		}
	}
	if traceOut != "" {
		if err := writeTraces(traceOut, labels, traces); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for i, res := range results {
		fmt.Fprintf(w, "=== %s ===\n", labels[i])
		fmt.Fprint(w, res.Text)
		fmt.Fprintln(w)
		for ti, t := range res.Tables {
			if err := maybeCSV(csvDir, labels[i], ti, t); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
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

// experimentIDs resolves -experiment to a sorted, deduplicated id list.
func experimentIDs(which string) []string {
	ids := []string{which}
	if which == "all" {
		ids = exp.CanonicalExperiments() // deduplicate the aliases that share one run
	}
	sort.Strings(ids)
	out := ids[:0]
	seen := map[string]bool{}
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// experimentSpecs turns the CLI's experiment selection into job specs.
// A parallel of 0 takes the registry path's width, all CPUs, since a
// spec's own 0 means a serial sweep.
func experimentSpecs(which string, quick bool, seed int64, parallel int) ([]string, []server.JobSpec) {
	if parallel == 0 {
		parallel = runtime.NumCPU()
	}
	parallel = min(parallel, server.MaxJobParallelism)
	experiments := exp.Registry()
	var labels []string
	var specs []server.JobSpec
	for _, id := range experimentIDs(which) {
		if _, ok := experiments[id]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, known())
			os.Exit(2)
		}
		labels = append(labels, id)
		specs = append(specs, server.JobSpec{
			Kind:        server.KindExperiment,
			Experiment:  &server.ExperimentSpec{ID: id, Quick: quick, Seed: seed},
			Parallelism: parallel,
		})
	}
	return labels, specs
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
