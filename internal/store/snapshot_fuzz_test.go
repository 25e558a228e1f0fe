package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSnapshotRestore hands arbitrary bytes to the journal as
// snapshot.json:
//
//  1. Open never panics, whatever the bytes;
//  2. whatever snapshot Open accepts survives a compaction, Close and
//     reopen: the reopened journal holds the records and cells the
//     compacted one held, and hands a memo the same cells. A bound of
//     one record makes every compaction prune, the path on which a
//     snapshot naming one hash twice used to panic.
//
// The journal's snapshot is the daemon's only durable state and the
// source of its warm memo at boot.
func FuzzSnapshotRestore(f *testing.F) {
	b, err := os.ReadFile("testdata/format/job/snapshot.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	// Two records journaling one key: Cells keeps the older record's.
	f.Add([]byte(`{"seq":4,"records":[{"hash":"a","spec":{},"state":"merged","cells":[{"key":"k","value":1}]},` +
		`{"hash":"b","spec":{},"state":"accepted","cells":[{"key":"k","value":2},{"key":"j","value":3}]}]}`))
	dup := `{"hash":"h","spec":{},"state":"merged"}`
	f.Add([]byte(`{"seq":2,"records":[` + dup + `,` + dup + `]}`))
	f.Add([]byte(`{"seq":1,"records":[{"hash":"h","spec":{ "a" : "<&>" },"cells":[{"key":"k","value":1},{"key":"k","value":2}]}]}`))
	// A memo-log snapshot, as a -memo-dir of earlier builds holds: it
	// decodes to no records.
	f.Add([]byte(`{"seq":3,"v":2,"entries":[{"key":"k","value":1}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, snap []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := Options{MaxSpecs: 1}
		s, err := Open(dir, opts)
		if err != nil {
			return
		}
		s.mu.Lock()
		err = s.log.compact()
		want := jobRecords(t, s)
		s.mu.Unlock()
		if err != nil {
			t.Fatalf("compact: %v", err)
		}
		wantCells := mustJSON(t, s.Cells())
		s.Close()
		s, err = Open(dir, opts)
		if err != nil {
			t.Fatalf("reopen after compaction: %v", err)
		}
		defer s.Close()
		if got := jobRecords(t, s); got != want {
			t.Fatalf("job records changed across compaction and reopen:\n got %s\nwant %s", got, want)
		}
		if got := mustJSON(t, s.Cells()); got != wantCells {
			t.Fatalf("cells changed across compaction and reopen:\n got %s\nwant %s", got, wantCells)
		}
	})
}

// jobRecords is a store's records and cells in their retention order, as
// JSON. Caller holds s.mu or owns s.
func jobRecords(t *testing.T, s *Store) string {
	var recs []snapRecord
	for _, h := range s.order {
		r := s.recs[h]
		recs = append(recs, snapRecord{Record: r.view(), Cells: r.cells.list()})
	}
	return mustJSON(t, recs)
}

// mustJSON marshals v the way a snapshot is written: raw spec and cell
// bytes come out compacted and HTML-escaped, the form a compaction may
// rewrite them to, so only a change of content compares unequal.
func mustJSON(t *testing.T, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
