package main

import (
	"bytes"
	"os"
	"path/filepath"
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
// an empty directory computes its baseline cells and saves them; the
// second imports them, computes nothing, and prints the same report.
func TestMemoDirWarmsSecondRun(t *testing.T) {
	dir := t.TempDir()
	run := func() (string, *sweep.Memo) {
		opts := exp.Options{Quick: true, Seed: 1, Parallelism: 2}
		save := openMemoDir(dir, &opts)
		var out bytes.Buffer
		runLocalRegistry(&out, "fig8", opts, "")
		save()
		return out.String(), opts.Memo
	}

	cold, memo := run()
	if memo.Computes() == 0 {
		t.Fatal("cold run computed no memo entries")
	}
	ml, err := store.OpenMemoLog(dir, store.MemoLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	saved := ml.Len()
	if err := ml.Close(); err != nil {
		t.Fatal(err)
	}
	if saved == 0 {
		t.Fatal("cold run saved nothing to the memo directory")
	}

	warm, memo := run()
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
