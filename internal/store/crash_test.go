package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// crashEnv is one crash scenario's handle on a journal directory. Item
// i is the spec hash "h<i>": add journals it as exactly one WAL line
// (an accept), and retire makes it prunable (a finish).
type crashEnv struct {
	t   *testing.T
	dir string
}

func (e crashEnv) open(every, max int) *Store {
	e.t.Helper()
	s, err := Open(e.dir, Options{SnapshotEvery: every, MaxSpecs: max})
	if err != nil {
		e.t.Fatalf("open: %v", err)
	}
	return s
}

func (e crashEnv) add(s *Store, items ...int) {
	e.t.Helper()
	for _, i := range items {
		if err := s.Accept(fmt.Sprintf("h%d", i), json.RawMessage(`{}`)); err != nil {
			e.t.Fatalf("add(%d): %v", i, err)
		}
	}
}

// line frames a well-formed WAL line journaling item i at seq.
func (e crashEnv) line(seq uint64, i int) string {
	body, _ := json.Marshal(walEntry{Seq: seq, Op: "accept", Hash: fmt.Sprintf("h%d", i)})
	return encodeLine(body)
}

// wantItems requires the journal to hold exactly items, oldest first.
func (e crashEnv) wantItems(s *Store, items ...int) {
	e.t.Helper()
	var want []string
	for _, i := range items {
		want = append(want, fmt.Sprintf("h%d", i))
	}
	s.mu.Lock()
	got := append([]string(nil), s.order...)
	s.mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		e.t.Fatalf("items = %v, want %v", got, want)
	}
}

func compact(s *Store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.compact()
}

func (e crashEnv) read(file string) []byte {
	e.t.Helper()
	b, err := os.ReadFile(filepath.Join(e.dir, file))
	if err != nil {
		e.t.Fatal(err)
	}
	return b
}

func (e crashEnv) write(file string, b []byte) {
	e.t.Helper()
	if err := os.WriteFile(filepath.Join(e.dir, file), b, 0o644); err != nil {
		e.t.Fatal(err)
	}
}

// TestCrashSuite runs every crash scenario against the job journal.
func TestCrashSuite(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(e crashEnv)
	}{
		{"torn_tail", func(e crashEnv) {
			// A crash mid-append leaves half a line: reopen keeps every
			// whole record, cuts the tail, and appends cleanly after it.
			j := e.open(0, 0)
			e.add(j, 0, 1, 2)
			j.Close()
			b := e.read("wal.log")
			last := bytes.LastIndexByte(b[:len(b)-1], '\n') + 1
			e.write("wal.log", b[:last+(len(b)-last)/2])

			j = e.open(0, 0)
			if !j.Stats().TruncatedTail {
				e.t.Fatal("torn tail not reported")
			}
			e.wantItems(j, 0, 1)
			if got := e.read("wal.log"); !bytes.Equal(got, b[:last]) {
				e.t.Fatalf("wal after truncation = %q, want the two whole lines", got)
			}
			e.add(j, 3) // append after truncation
			j.Close()
			j = e.open(0, 0)
			defer j.Close()
			if st := j.Stats(); st.TruncatedTail || st.Replayed != 3 {
				e.t.Fatalf("after re-append: %+v, want 3 replayed and no truncation", st)
			}
			e.wantItems(j, 0, 1, 3)
		}},
		{"crc_corrupt_middle_line", func(e crashEnv) {
			// A flipped byte inside line 2 fails its CRC: replay keeps
			// only the prefix before it and cuts the rest.
			j := e.open(0, 0)
			e.add(j, 0, 1, 2)
			j.Close()
			b := e.read("wal.log")
			nl := bytes.IndexByte(b, '\n')
			b[nl+15] ^= 0xff
			e.write("wal.log", b)

			j = e.open(0, 0)
			defer j.Close()
			if !j.Stats().TruncatedTail {
				e.t.Fatal("corruption not reported as a truncated tail")
			}
			e.wantItems(j, 0)
			if got := e.read("wal.log"); len(got) != nl+1 {
				e.t.Fatalf("wal after truncation is %d bytes, want the first line's %d", len(got), nl+1)
			}
		}},
		{"stale_low_seq_after_compaction", func(e crashEnv) {
			// Compaction empties the WAL; a crash between the snapshot
			// rename and the WAL truncate leaves lines the snapshot
			// already covers, which replay must skip.
			j := e.open(4, 0)
			e.add(j, 0, 1, 2, 3) // the 4th append compacts
			if st := j.Stats(); st.Snapshots != 1 || st.Appends != 4 {
				e.t.Fatalf("stats after 4 appends = %+v, want 1 snapshot", st)
			}
			if b := e.read("wal.log"); len(b) != 0 {
				e.t.Fatalf("wal after compaction holds %d bytes, want 0", len(b))
			}
			e.add(j, 4)
			j.Close()
			e.write("wal.log", append([]byte(e.line(1, 99)), e.read("wal.log")...))

			j = e.open(4, 0)
			defer j.Close()
			e.wantItems(j, 0, 1, 2, 3, 4)
			if st := j.Stats(); st.Replayed != 1 {
				e.t.Fatalf("replayed %d lines, want only the post-snapshot one", st.Replayed)
			}
		}},
		{"compaction_prunes", func(e crashEnv) {
			// Compaction keeps the newest max prunable items, and the
			// pruned shape is what a reopen recovers.
			j := e.open(1000, 3)
			for i := 0; i < 5; i++ {
				e.add(j, i)
				if err := j.Finish(fmt.Sprintf("h%d", i), StateMerged, ""); err != nil {
					e.t.Fatal(err)
				}
			}
			e.add(j, 5)
			if err := compact(j); err != nil {
				e.t.Fatalf("compact: %v", err)
			}
			e.wantItems(j, 3, 4, 5)
			j.Close()
			j = e.open(1000, 3)
			defer j.Close()
			e.wantItems(j, 3, 4, 5)
			if st := j.Stats(); st.Replayed != 0 {
				e.t.Fatalf("replayed %d lines after compaction, want 0", st.Replayed)
			}
		}},
		{"append_after_close", func(e crashEnv) {
			j := e.open(0, 0)
			e.add(j, 0)
			if err := j.Close(); err != nil {
				e.t.Fatal(err)
			}
			if err := j.Accept("h1", json.RawMessage(`{}`)); err == nil {
				e.t.Fatal("append after Close succeeded")
			}
			if err := j.Close(); err != nil {
				e.t.Fatalf("second Close: %v", err)
			}
		}},
		{"corrupt_snapshot", func(e crashEnv) {
			// A torn snapshot.json fails Open: the journal is the only
			// record of in-flight jobs, so it must not start empty.
			j := e.open(2, 0)
			e.add(j, 0, 1, 2) // compacts after 1; item 2 is in the WAL
			j.Close()
			snap := e.read("snapshot.json")
			e.write("snapshot.json", snap[:len(snap)/2])
			if j, err := Open(e.dir, Options{SnapshotEvery: 2}); err == nil {
				j.Close()
				e.t.Fatal("Open succeeded on a corrupt snapshot")
			}
		}},
	}
	// Scenarios run as job/<name>, after the journal they exercise.
	t.Run("job", func(t *testing.T) {
		for _, sc := range scenarios {
			t.Run(sc.name, func(t *testing.T) {
				sc.run(crashEnv{t: t, dir: t.TempDir()})
			})
		}
	})
}
