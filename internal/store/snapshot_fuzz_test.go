package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSnapshotRestore hands arbitrary bytes to both journals as
// snapshot.json:
//
//  1. neither Open panics, whatever the bytes;
//  2. whatever snapshot an Open accepts (the memo log accepts any)
//     survives a compaction, Close and reopen: the reopened journal
//     holds what the compacted one held. The bounds of one record and
//     one entry make every compaction prune, the path on which a job
//     snapshot naming one hash twice used to panic.
func FuzzSnapshotRestore(f *testing.F) {
	for _, file := range []string{"testdata/format/job/snapshot.json", "testdata/format/memo/snapshot.json"} {
		b, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	dup := `{"hash":"h","spec":{},"state":"merged"}`
	f.Add([]byte(`{"seq":2,"records":[` + dup + `,` + dup + `]}`))
	f.Add([]byte(`{"seq":1,"records":[{"hash":"h","spec":{ "a" : "<&>" },"cells":[{"key":"k","value":1},{"key":"k","value":2}]}]}`))
	f.Add([]byte(`{"seq":3,"v":2,"entries":[{"key":"k","value":1}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, snap []byte) {
		jobDir, memoDir := t.TempDir(), t.TempDir()
		for _, dir := range []string{jobDir, memoDir} {
			if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		opts := Options{MaxSpecs: 1}
		if s, err := Open(jobDir, opts); err == nil {
			s.mu.Lock()
			err := s.log.compact()
			want := jobRecords(t, s)
			s.mu.Unlock()
			if err != nil {
				t.Fatalf("compact: %v", err)
			}
			s.Close()
			s, err = Open(jobDir, opts)
			if err != nil {
				t.Fatalf("reopen after compaction: %v", err)
			}
			if got := jobRecords(t, s); got != want {
				t.Fatalf("job records changed across compaction and reopen:\n got %s\nwant %s", got, want)
			}
			s.Close()
		}

		memoOpts := MemoLogOptions{MaxEntries: 1}
		l, err := OpenMemoLog(memoDir, memoOpts)
		if err != nil {
			t.Fatalf("memo log Open: %v", err)
		}
		l.mu.Lock()
		err = l.log.compact()
		want := mustJSON(t, l.entries.list())
		l.mu.Unlock()
		if err != nil {
			t.Fatalf("memo compact: %v", err)
		}
		l.Close()
		if l, err = OpenMemoLog(memoDir, memoOpts); err != nil {
			t.Fatalf("memo reopen after compaction: %v", err)
		}
		if got := mustJSON(t, l.Entries()); got != want {
			t.Fatalf("memo entries changed across compaction and reopen:\n got %s\nwant %s", got, want)
		}
		l.Close()
	})
}

// jobRecords is a store's records and cells in acceptance order, as
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
