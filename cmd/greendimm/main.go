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
// With -memo-dir, baseline sweep cells computed by local runs persist
// to a WAL-backed log in that directory and reload at the next
// invocation, so repeated quick iterations skip the shared baselines.
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
		seed       = flag.Int64("seed", 1, "random seed")
		parallel   = flag.Int("parallel", 0, "sweep worker goroutines per experiment (0 = all CPUs, 1 = serial; output is identical either way)")
		csvDir     = flag.String("csv", "", "also write each table as CSV into this directory")
		specFile   = flag.String("spec", "", "run a JSON job-spec file (one spec object or an array) instead of -experiment")
		policyFile = flag.String("policy-config", "", "run a JSON policy config file (a block-selection pipeline plus an optional VM scenario) instead of -experiment")
		backends   = flag.String("backends", "", "comma-separated greendimmd base URLs; jobs run remotely with routing, retries and hedging (in-process fallback if all are down)")
		hedgeAfter = flag.Duration("hedge-after", 30*time.Second, "with -backends: duplicate an unfinished job onto a second backend after this long (0 disables hedging)")
		traceOut   = flag.String("trace-out", "", "write a JSON execution trace (per-cell spans; with -backends also attempts/hedges/backoffs) to this file")
		memoDir    = flag.String("memo-dir", "", "persistent baseline-cell memo directory (local runs only): reload previously computed sweep cells before running and save new ones after, so repeated invocations skip shared baselines")
	)
	flag.Parse()
	if *parallel < 0 {
		fmt.Fprintln(os.Stderr, "-parallel must be >= 0")
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
		runSpecs([]string{"policy:" + pc.Policy.Fingerprint()}, []server.JobSpec{spec},
			*backends, *hedgeAfter, *csvDir, *traceOut)
	case *specFile != "":
		specs, err := loadSpecs(*specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runSpecs(specLabels(specs), specs, *backends, *hedgeAfter, *csvDir, *traceOut)
	case *backends != "" || *traceOut != "":
		// Tracing needs the spec path: runSpecs threads an obs.Trace
		// through execution, which the registry path has no seam for.
		labels, specs := experimentSpecs(*which, *quick, *seed, *parallel)
		runSpecs(labels, specs, *backends, *hedgeAfter, *csvDir, *traceOut)
	default:
		opts := exp.Options{Quick: *quick, Seed: *seed, Parallelism: *parallel}
		saveMemo := openMemoDir(*memoDir, &opts)
		runLocalRegistry(os.Stdout, *which, opts, *csvDir)
		saveMemo()
	}
}

// openMemoDir loads a persistent memo store into opts.Memo and returns
// the save function that writes newly computed entries back. With an
// empty dir it is a no-op pair: runLocalRegistry builds its own
// in-memory memo as before. Entries persist with the same verified
// codec the daemon's memo spill uses, so the two stores are
// interchangeable on disk.
func openMemoDir(dir string, opts *exp.Options) func() {
	if dir == "" {
		return func() {}
	}
	ml, err := store.OpenMemoLog(dir, store.MemoLogOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	memo := sweep.NewMemo(0)
	memo.SetCodec(exp.MemoCodec())
	var warm []sweep.Entry
	for _, c := range ml.Entries() {
		warm = append(warm, sweep.Entry{V: sweep.EntryVersion, Key: c.Key, Value: c.Value})
	}
	if n := memo.Import(warm); n > 0 {
		fmt.Fprintf(os.Stderr, "memo: %d entries loaded from %s\n", n, dir)
	}
	opts.Memo = memo
	return func() {
		saved := 0
		for _, e := range memo.Export(nil) {
			before := ml.Len()
			if err := ml.Put(e.Key, e.Value); err != nil {
				fmt.Fprintf(os.Stderr, "memo: saving %s: %v\n", dir, err)
				break
			}
			if ml.Len() > before {
				saved++
			}
		}
		if saved > 0 {
			fmt.Fprintf(os.Stderr, "memo: %d new entries saved to %s\n", saved, dir)
		}
		if err := ml.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "memo: closing %s: %v\n", dir, err)
		}
	}
}

// runLocalRegistry is the classic in-process path: each experiment runs
// on this machine's registry runner, its report printed to w.
func runLocalRegistry(w io.Writer, which string, opts exp.Options, csvDir string) {
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
		tables, series, err := fn(opts)
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
// in-process via server.Execute — and prints each report the way the
// local path does. With traceOut, each spec records an execution trace
// and the labeled set is written there as JSON.
func runSpecs(labels []string, specs []server.JobSpec, backends string, hedgeAfter time.Duration, csvDir, traceOut string) {
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
		fmt.Printf("=== %s ===\n", labels[i])
		fmt.Print(res.Text)
		fmt.Println()
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
func experimentSpecs(which string, quick bool, seed int64, parallel int) ([]string, []server.JobSpec) {
	experiments := exp.Registry()
	var labels []string
	var specs []server.JobSpec
	for _, id := range experimentIDs(which) {
		if _, ok := experiments[id]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, known())
			os.Exit(2)
		}
		if parallel > server.MaxJobParallelism {
			parallel = server.MaxJobParallelism
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
