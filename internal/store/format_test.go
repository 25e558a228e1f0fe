package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The fixture under testdata/format was written by an earlier build of
// this package running writeJobFixture and writeMemoFixture: a job
// journal and a memo log, each compacted once (with pruning) and left
// with a WAL tail. TestOnDiskFormat holds every later build to those
// bytes.

func jobFixtureOptions() Options { return Options{SnapshotEvery: 14, MaxSpecs: 3} }

func memoFixtureOptions() MemoLogOptions { return MemoLogOptions{SnapshotEvery: 4, MaxEntries: 3} }

// writeJobFixture journals a fixed history into dir: four specs, the
// oldest terminal one pruned by the compaction at the 14th append, then
// a WAL tail that completes a range, re-accepts a failed spec, adds a
// cell to it and finishes another.
func writeJobFixture(dir string) error {
	s, err := Open(dir, jobFixtureOptions())
	if err != nil {
		return err
	}
	steps := []func() error{
		func() error {
			return s.Accept("h-a", json.RawMessage(`{ "kind": "experiment", "experiment": {"id": "fig8", "quick": true} }`))
		},
		func() error { return s.Plan("h-a", 4, [][2]int{{0, 2}, {2, 4}}) },
		func() error { return s.PutCell("h-a", "timing|a0", json.RawMessage(`{"v": 0}`)) },
		func() error { return s.PutCell("h-a", "timing|a1", json.RawMessage(`{"v":1.5}`)) },
		func() error { return s.RangeDone("h-a", 0, 2) },
		func() error { return s.Finish("h-a", StateMerged, "") },
		func() error { return s.Accept("h-b", json.RawMessage(`{"kind":"vmserver"}`)) },
		func() error { return s.Finish("h-b", StateFailed, "boom") },
		func() error { return s.Accept("h-c", json.RawMessage(`{"kind":"experiment","seed":3}`)) },
		func() error { return s.Plan("h-c", 6, [][2]int{{0, 3}, {3, 6}}) },
		func() error { return s.RangeDone("h-c", 3, 6) },
		func() error { return s.PutCell("h-c", "dynamics|c0", json.RawMessage(`[1, 2, 3]`)) },
		func() error { return s.Accept("h-d", json.RawMessage(`{"kind":"experiment","seed":4}`)) },
		func() error { return s.Finish("h-d", StateCanceled, "client canceled") },      // compacts, pruning h-a
		func() error { return s.PutCell("h-a", "timing|gone", json.RawMessage(`{}`)) }, // pruned: no-op
		func() error { return s.RangeDone("h-c", 0, 3) },
		func() error { return s.Accept("h-b", nil) },
		func() error { return s.PutCell("h-b", "timing|b0", json.RawMessage(`"x"`)) },
		func() error { return s.Finish("h-c", StateMerged, "") },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			s.Close()
			return err
		}
	}
	return s.Close()
}

// writeMemoFixture journals six entries plus two duplicates into dir,
// compacting after the 4th append with the oldest entry pruned.
func writeMemoFixture(dir string) error {
	l, err := OpenMemoLog(dir, memoFixtureOptions())
	if err != nil {
		return err
	}
	puts := []struct{ key, value string }{
		{"timing|k0", `{"a": [1, 2]}`},
		{"timing|k1", `1`},
		{"timing|k1", `2`}, // duplicate: no append
		{"vmday|k2", `{"b":true}`},
		{"tailsvc|k3", `"s"`}, // 4th append: compacts, pruning k0
		{"timing|k4", `null`},
		{"vmday|k2", `3`}, // duplicate
		{"dynamics|k5", `{"c": {"d": 1}}`},
	}
	for _, p := range puts {
		if err := l.Put(p.key, json.RawMessage(p.value)); err != nil {
			l.Close()
			return err
		}
	}
	return l.Close()
}

// TestOnDiskFormat reopens the committed fixture and checks the
// recovered state, then replays the fixture's operations into a fresh
// directory and requires byte-identical wal.log and snapshot.json.
func TestOnDiskFormat(t *testing.T) {
	fixture := filepath.Join("testdata", "format")
	for _, sub := range []string{"job", "memo"} {
		for _, f := range []string{"wal.log", "snapshot.json"} {
			b, err := os.ReadFile(filepath.Join(fixture, sub, f))
			if err != nil || len(b) == 0 {
				t.Fatalf("fixture %s/%s: %d bytes, %v; want a snapshot plus a WAL tail", sub, f, len(b), err)
			}
		}
	}

	t.Run("job", func(t *testing.T) {
		dir := copyDir(t, filepath.Join(fixture, "job"))
		s := open(t, dir, Options{})
		defer s.Close()
		if st := s.Stats(); st.Specs != 3 || st.Cells != 2 || st.Replayed != 4 || st.TruncatedTail {
			t.Fatalf("stats = %+v, want 3 specs, 2 cells, 4 replayed, no truncation", st)
		}
		if _, ok := s.Get("h-a"); ok {
			t.Fatal("pruned record h-a recovered")
		}
		want := map[string]Record{
			"h-b": {Hash: "h-b", Spec: json.RawMessage(`{"kind":"vmserver"}`), State: StateAccepted, CellCount: 1},
			"h-c": {
				Hash: "h-c", Spec: json.RawMessage(`{"kind":"experiment","seed":3}`), State: StateMerged,
				Total: 6, Planned: [][2]int{{0, 3}, {3, 6}}, Done: [][2]int{{0, 6}}, CellCount: 1,
			},
			"h-d": {Hash: "h-d", Spec: json.RawMessage(`{"kind":"experiment","seed":4}`), State: StateCanceled, Err: "client canceled"},
		}
		for h, w := range want {
			if got, _ := s.Get(h); !reflect.DeepEqual(got, w) {
				t.Errorf("Get(%s) = %+v\nwant %+v", h, got, w)
			}
		}
		if cells, _ := s.Resume("h-c"); len(cells) != 1 || cells[0].Key != "dynamics|c0" || string(cells[0].Value) != `[1,2,3]` {
			t.Errorf("Resume(h-c) = %+v", cells)
		}
		if pend := s.Pending(); len(pend) != 1 || pend[0].Hash != "h-b" {
			t.Errorf("Pending = %+v, want h-b alone", pend)
		}
		fresh := t.TempDir()
		if err := writeJobFixture(fresh); err != nil {
			t.Fatal(err)
		}
		sameFiles(t, filepath.Join(fixture, "job"), fresh)
	})

	t.Run("memo", func(t *testing.T) {
		dir := copyDir(t, filepath.Join(fixture, "memo"))
		l, err := OpenMemoLog(dir, MemoLogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		want := []Cell{
			{Key: "timing|k1", Value: json.RawMessage(`1`)},
			{Key: "vmday|k2", Value: json.RawMessage(`{"b":true}`)},
			{Key: "tailsvc|k3", Value: json.RawMessage(`"s"`)},
			{Key: "timing|k4", Value: json.RawMessage(`null`)},
			{Key: "dynamics|k5", Value: json.RawMessage(`{"c":{"d":1}}`)},
		}
		if got := l.Entries(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Entries = %s\nwant %s", got, want)
		}
		if st := l.Stats(); st.Replayed != 2 || st.TruncatedTail {
			t.Fatalf("stats = %+v, want 2 replayed, no truncation", st)
		}
		fresh := t.TempDir()
		if err := writeMemoFixture(fresh); err != nil {
			t.Fatal(err)
		}
		sameFiles(t, filepath.Join(fixture, "memo"), fresh)
	})
}

// copyDir copies a fixture journal into a temp dir, so reopening it
// (which may truncate or compact) never touches testdata.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, f := range []string{"wal.log", "snapshot.json"} {
		b, err := os.ReadFile(filepath.Join(src, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// sameFiles requires want's and got's journal files to be byte-identical.
func sameFiles(t *testing.T, want, got string) {
	t.Helper()
	for _, f := range []string{"wal.log", "snapshot.json"} {
		w, err := os.ReadFile(filepath.Join(want, f))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(got, f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, g) {
			t.Errorf("%s differs from the fixture:\n got  %s\n want %s", f, g, w)
		}
	}
}
