package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"greendimm/internal/server"
	"greendimm/internal/store"
)

// TestMain lets tests drive the command itself: a test binary started
// with GREENDIMM_ARGS set runs main on those arguments, one per line,
// instead of the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("GREENDIMM_ARGS"); ok {
		os.Args = append([]string{"greendimm"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// greendimm runs the command on args in a child process and returns its
// stdout, its stderr and its exit status.
func greendimm(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "GREENDIMM_ARGS="+strings.Join(args, "\n"))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// quickSpec returns the normalized quick spec of one experiment at seed
// 1 and its hash.
func quickSpec(t *testing.T, id string) (server.JobSpec, string) {
	t.Helper()
	spec, err := server.JobSpec{
		Kind:       server.KindExperiment,
		Experiment: &server.ExperimentSpec{ID: id, Quick: true, Seed: 1},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := server.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec, hash
}

// journaled opens the -memo-dir journal dir and returns the record of
// the spec with the given hash.
func journaled(t *testing.T, dir, hash string) store.Record {
	t.Helper()
	journal, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	rec, ok := journal.Get(hash)
	if !ok {
		t.Fatalf("%s holds no record of spec %.12s", dir, hash)
	}
	return rec
}

// TestMemoDirJournalsTracedRun: -memo-dir journals a -trace-out run like
// any local run, and the second run computes no memo cell and prints
// the same report.
func TestMemoDirJournalsTracedRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "memo")
	args := []string{"-experiment", "fig8", "-quick", "-memo-dir", dir, "-trace-out", filepath.Join(t.TempDir(), "trace.json")}
	cold, stderr, code := greendimm(t, args...)
	if code != 0 {
		t.Fatalf("cold run: exit %d, stderr:\n%s", code, stderr)
	}
	_, hash := quickSpec(t, "fig8")
	if rec := journaled(t, dir, hash); rec.State != store.StateMerged || rec.CellCount == 0 {
		t.Fatalf("fig8 record = %+v, want merged with its cells", rec)
	}
	warm, stderr, code := greendimm(t, args...)
	if code != 0 || !strings.Contains(stderr, "memo: 0 cells computed") {
		t.Fatalf("warm run: exit %d, stderr:\n%s\nwant exit 0 with no memo cell computed", code, stderr)
	}
	if warm != cold {
		t.Fatalf("warm report differs from the cold one:\n%s\nvs\n%s", warm, cold)
	}
}

// TestMemoDirJournalsSpecFile: -memo-dir journals a -spec run under the
// spec's hash.
func TestMemoDirJournalsSpecFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "memo")
	file := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(file, []byte(`{"kind":"experiment","experiment":{"id":"tab3","quick":true}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, code := greendimm(t, "-spec", file, "-memo-dir", dir); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	_, hash := quickSpec(t, "tab3")
	if rec := journaled(t, dir, hash); rec.State != store.StateMerged || rec.CellCount == 0 {
		t.Fatalf("tab3 record = %+v, want merged with its cells", rec)
	}
}

// TestMemoDirRejectsBackends: -memo-dir journals local runs only, so
// with -backends greendimm exits 2 before running anything.
func TestMemoDirRejectsBackends(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "memo")
	stdout, stderr, code := greendimm(t, "-experiment", "tab3", "-quick", "-memo-dir", dir, "-backends", "http://127.0.0.1:1")
	if code != 2 || stdout != "" {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s\nwant exit status 2 and no report", code, stdout, stderr)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-memo-dir with -backends touched %s: %v", dir, err)
	}
}
