package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"greendimm/internal/exp"
	"greendimm/internal/report"
	"greendimm/internal/server"
	"greendimm/internal/store"
	"greendimm/internal/sweep"
)

func TestWriteCSV(t *testing.T) {
	tb := report.NewTable("t", "a", "b")
	tb.AddRow("x", 1, 2.5)
	tb.AddRow("y", 3, 4)
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := writeCSV(path, tb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "label,a,b\nx,1,2.5\ny,3,4\n"
	if string(data) != want {
		t.Errorf("csv = %q, want %q", data, want)
	}
}

func TestKnownListsAllExperiments(t *testing.T) {
	k := known()
	for _, id := range []string{"fig1", "fig13", "tab3", "ablations", "tail", "ramzzz", "hwcost", "swapthr"} {
		if !strings.Contains(k, id) {
			t.Errorf("known() missing %q: %s", id, k)
		}
	}
}

// TestLoadSpecsAcceptsEngineShards pins that spec files written for the
// removed sharded engine still load: engine_shards is accepted, ignored,
// and leaves the spec hash alone, while its range check still applies.
func TestLoadSpecsAcceptsEngineShards(t *testing.T) {
	dir := t.TempDir()
	load := func(name, body string) server.JobSpec {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		specs, err := loadSpecs(path)
		if err != nil {
			t.Fatalf("loadSpecs(%s): %v", body, err)
		}
		if len(specs) != 1 {
			t.Fatalf("loadSpecs(%s) = %d specs, want 1", body, len(specs))
		}
		return specs[0]
	}
	hash := func(spec server.JobSpec) string {
		t.Helper()
		h, err := server.SpecHash(spec)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	plain := hash(load("plain.json", `{"kind":"experiment","experiment":{"id":"hwcost"}}`))
	if got := hash(load("sharded.json", `{"kind":"experiment","experiment":{"id":"hwcost"},"engine_shards":4}`)); got != plain {
		t.Errorf("engine_shards changed the spec hash: %s vs %s", got, plain)
	}
	if got := hash(load("array.json", `[{"kind":"experiment","experiment":{"id":"hwcost"},"engine_shards":2}]`)); got != plain {
		t.Errorf("engine_shards in a spec array changed the spec hash: %s vs %s", got, plain)
	}
	if _, err := server.SpecHash(load("bad.json", `{"kind":"experiment","experiment":{"id":"hwcost"},"engine_shards":17}`)); err == nil {
		t.Error("engine_shards 17 passed validation")
	}
}

// TestMemoDirWarmsSecondRun drives the -memo-dir path: the first run on
// an empty directory computes its baseline cells and journals them; the
// second imports them, computes nothing, and prints the same report.
func TestMemoDirWarmsSecondRun(t *testing.T) {
	dir := t.TempDir()
	cold, memo := runMemoDir(t, dir, "fig8")
	if memo.Computes() == 0 {
		t.Fatal("cold run computed no memo entries")
	}
	journal, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	saved := len(journal.Cells())
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	if saved == 0 {
		t.Fatal("cold run journaled no cells to the memo directory")
	}

	warm, memo := runMemoDir(t, dir, "fig8")
	if n := memo.Computes(); n != 0 {
		t.Fatalf("warm run computed %d memo entries, want 0", n)
	}
	if n := memo.Imports(); n != int64(saved) {
		t.Fatalf("warm run imported %d entries, want the %d saved", n, saved)
	}
	if warm != cold {
		t.Fatalf("warm report differs from the cold one:\n%s\nvs\n%s", warm, cold)
	}
}

// runMemoDir runs the registry path on -memo-dir dir and returns the
// report and the memo the run used.
func runMemoDir(t *testing.T, dir, which string) (string, *sweep.Memo) {
	t.Helper()
	opts := exp.Options{Quick: true, Seed: 1, Parallelism: 2}
	journal, closeJournal := openMemoDir(dir, &opts)
	var out bytes.Buffer
	runLocalRegistry(&out, which, opts, "", journal)
	closeJournal()
	return out.String(), opts.Memo
}

// TestMemoDirIsAStoreDir opens -memo-dir directories as greendimmd's
// -store-dir. After a finished run the daemon boots with the journaled
// cells in its memo and recovers no job. A run cut off after its cells
// are journaled and before Finish, as Ctrl-C does, stays accepted, so
// the daemon resumes it from its journaled cells rather than drop it.
func TestMemoDirIsAStoreDir(t *testing.T) {
	boot := func(t *testing.T, dir string) *server.Server {
		s, err := server.Open(server.Config{Workers: 1, QueueDepth: 1, StoreDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Shutdown(context.Background()) })
		return s
	}
	t.Run("finished", func(t *testing.T) {
		dir := t.TempDir()
		runMemoDir(t, dir, "tab3")
		s := boot(t, dir)
		if s.MemoImported() == 0 {
			t.Error("daemon imported no cells from the -memo-dir journal")
		}
		if jobs, total := s.List(server.ListQuery{}); total != 0 {
			t.Errorf("daemon recovered %d jobs from a finished -memo-dir journal: %+v", total, jobs)
		}
	})
	t.Run("interrupted", func(t *testing.T) {
		dir := t.TempDir()
		journal, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cut := func(o exp.Options) ([]*report.Table, []report.Series, error) {
			exp.Registry()["tab3"](o)
			panic("interrupted")
		}
		func() {
			defer func() { recover() }()
			runJournaled(journal, "tab3", cut, exp.Options{Quick: true, Seed: 1, Memo: sweep.NewMemo(0)})
		}()
		if err := journal.Close(); err != nil {
			t.Fatal(err)
		}
		s := boot(t, dir)
		jobs, total := s.List(server.ListQuery{})
		if total != 1 || !jobs[0].Recovered {
			t.Fatalf("daemon recovered %d jobs from an interrupted run, want it alone: %+v", total, jobs)
		}
		v, err := s.Wait(context.Background(), jobs[0].ID)
		if err != nil || v.State != server.StateSucceeded || v.ResumedCells == 0 {
			t.Fatalf("resumed job = %+v (%v), want it succeeded from journaled cells", v, err)
		}
	})
}

// TestSeedZeroRejected: a spec's seed 0 is seed 1, so the registry path
// would run a seed that -trace-out, -backends and the -memo-dir journal
// cannot name. greendimm exits 2 on -seed 0 before running anything,
// as it does on a negative -parallel.
func TestSeedZeroRejected(t *testing.T) {
	if os.Getenv("GREENDIMM_TEST_MAIN") == "1" {
		os.Args = []string{"greendimm", "-experiment", "fig8", "-quick", "-seed", "0"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSeedZeroRejected$")
	cmd.Env = append(os.Environ(), "GREENDIMM_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-seed must be nonzero") {
		t.Fatalf("greendimm -seed 0: %v, output:\n%s\nwant exit status 2 with a -seed error", err, out)
	}

	if err := checkFlags(1, -1); err == nil || !strings.Contains(err.Error(), "-parallel") {
		t.Errorf("checkFlags(parallel -1) = %v, want a -parallel error", err)
	}
	for _, seed := range []int64{1, -1, 97} {
		if err := checkFlags(seed, 0); err != nil {
			t.Errorf("checkFlags(seed %d) = %v, want nil", seed, err)
		}
	}
}

// TestRunJournaledRecordsFailure: a run that fails leaves its record
// failed with the run's error, so no later boot recovers it.
func TestRunJournaledRecordsFailure(t *testing.T) {
	journal, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	fail := func(exp.Options) ([]*report.Table, []report.Series, error) { return nil, nil, errors.New("boom") }
	if _, _, err := runJournaled(journal, "tab3", fail, exp.Options{Quick: true, Seed: 1}); err == nil {
		t.Fatal("runJournaled hid the run's error")
	}
	hash, err := server.SpecHash(server.JobSpec{Kind: server.KindExperiment, Experiment: &server.ExperimentSpec{ID: "tab3", Quick: true, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := journal.Get(hash); !ok || rec.State != store.StateFailed || rec.Err != "boom" {
		t.Fatalf("record = %+v (found %v), want failed with the run's error", rec, ok)
	}
	if pending := journal.Pending(); len(pending) != 0 {
		t.Fatalf("failed run left %d pending records", len(pending))
	}
}

// TestExperimentSpecsParallelism: -parallel 0 means all CPUs on the spec
// path too (a spec's 0 is a serial sweep), capped at the spec bound, and
// the spec path prints what the registry path prints.
func TestExperimentSpecsParallelism(t *testing.T) {
	for _, c := range []struct{ flag, want int }{
		{0, min(runtime.NumCPU(), server.MaxJobParallelism)},
		{1, 1},
		{3, 3},
		{server.MaxJobParallelism + 1, server.MaxJobParallelism},
	} {
		_, specs := experimentSpecs("fig8", true, 1, c.flag)
		if got := specs[0].Parallelism; got != c.want {
			t.Errorf("-parallel %d: spec parallelism %d, want %d", c.flag, got, c.want)
		}
	}

	var registry, spec bytes.Buffer
	runLocalRegistry(&registry, "fig8", exp.Options{Quick: true, Seed: 1}, "", nil)
	labels, specs := experimentSpecs("fig8", true, 1, 0)
	runSpecs(&spec, labels, specs, "", 0, "", "")
	if spec.String() != registry.String() {
		t.Fatalf("spec path printed\n%s\nregistry path printed\n%s", spec.String(), registry.String())
	}
}
