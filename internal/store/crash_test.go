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

// journal adapts one state machine to the shared crash suite. add
// journals item i as exactly one WAL line; retire makes it prunable;
// items lists what the journal holds, oldest first.
type journal interface {
	add(i int) error
	retire(i int) error
	items() []string
	stats() LogStats
	compact() error
	Close() error
}

// machineCase is one state machine under the crash suite.
type machineCase struct {
	name string
	// open opens the journal in dir, compacting every `every` appends
	// and keeping at most max prunable items.
	open func(dir string, every, max int) (journal, error)
	// line frames a well-formed WAL line journaling item i at seq.
	line func(seq uint64, i int) string
	// corruptSnapshotOpens reports whether an undecodable snapshot
	// leaves the journal openable (cold) instead of failing Open.
	corruptSnapshotOpens bool
}

type jobJournal struct{ *Store }

func (j jobJournal) add(i int) error {
	return j.Accept(fmt.Sprintf("h%d", i), json.RawMessage(`{}`))
}
func (j jobJournal) retire(i int) error {
	return j.Finish(fmt.Sprintf("h%d", i), StateMerged, "")
}
func (j jobJournal) items() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.order...)
}
func (j jobJournal) stats() LogStats { return j.Stats().LogStats }
func (j jobJournal) compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.compact()
}

type memoJournal struct{ *MemoLog }

func (m memoJournal) add(i int) error {
	return m.Put(fmt.Sprintf("h%d", i), json.RawMessage(fmt.Sprint(i)))
}
func (m memoJournal) retire(int) error { return nil } // every entry is prunable
func (m memoJournal) items() []string {
	var keys []string
	for _, c := range m.Entries() {
		keys = append(keys, c.Key)
	}
	return keys
}
func (m memoJournal) stats() LogStats { return m.Stats().LogStats }
func (m memoJournal) compact() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.compact()
}

var machines = []machineCase{
	{
		name: "job",
		open: func(dir string, every, max int) (journal, error) {
			s, err := Open(dir, Options{SnapshotEvery: every, MaxSpecs: max})
			return jobJournal{s}, err
		},
		line: func(seq uint64, i int) string {
			body, _ := json.Marshal(walEntry{Seq: seq, Op: "accept", Hash: fmt.Sprintf("h%d", i)})
			return encodeLine(body)
		},
	},
	{
		name: "memo",
		open: func(dir string, every, max int) (journal, error) {
			l, err := OpenMemoLog(dir, MemoLogOptions{SnapshotEvery: every, MaxEntries: max})
			return memoJournal{l}, err
		},
		line: func(seq uint64, i int) string {
			body, _ := json.Marshal(memoWALEntry{Seq: seq, V: memoLogVersion, Key: fmt.Sprintf("h%d", i), Value: json.RawMessage(`0`)})
			return encodeLine(body)
		},
		corruptSnapshotOpens: true,
	},
}

// crashEnv is one crash scenario's handle on a machine and its directory.
type crashEnv struct {
	t   *testing.T
	m   machineCase
	dir string
}

func (e crashEnv) open(every, max int) journal {
	e.t.Helper()
	j, err := e.m.open(e.dir, every, max)
	if err != nil {
		e.t.Fatalf("open: %v", err)
	}
	return j
}

func (e crashEnv) add(j journal, items ...int) {
	e.t.Helper()
	for _, i := range items {
		if err := j.add(i); err != nil {
			e.t.Fatalf("add(%d): %v", i, err)
		}
	}
}

func (e crashEnv) wantItems(j journal, items ...int) {
	e.t.Helper()
	var want []string
	for _, i := range items {
		want = append(want, fmt.Sprintf("h%d", i))
	}
	if got := j.items(); !reflect.DeepEqual(got, want) {
		e.t.Fatalf("items = %v, want %v", got, want)
	}
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

// TestCrashSuite runs every crash scenario against both state machines:
// recovery is the shared log's job, so each must recover identically.
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
			if !j.stats().TruncatedTail {
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
			if st := j.stats(); st.TruncatedTail || st.Replayed != 3 {
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
			if !j.stats().TruncatedTail {
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
			if st := j.stats(); st.Snapshots != 1 || st.Appends != 4 {
				e.t.Fatalf("stats after 4 appends = %+v, want 1 snapshot", st)
			}
			if b := e.read("wal.log"); len(b) != 0 {
				e.t.Fatalf("wal after compaction holds %d bytes, want 0", len(b))
			}
			e.add(j, 4)
			j.Close()
			e.write("wal.log", append([]byte(e.m.line(1, 99)), e.read("wal.log")...))

			j = e.open(4, 0)
			defer j.Close()
			e.wantItems(j, 0, 1, 2, 3, 4)
			if st := j.stats(); st.Replayed != 1 {
				e.t.Fatalf("replayed %d lines, want only the post-snapshot one", st.Replayed)
			}
		}},
		{"compaction_prunes", func(e crashEnv) {
			// Compaction keeps the newest max prunable items, and the
			// pruned shape is what a reopen recovers.
			j := e.open(1000, 3)
			for i := 0; i < 5; i++ {
				e.add(j, i)
				if err := j.retire(i); err != nil {
					e.t.Fatal(err)
				}
			}
			e.add(j, 5)
			if err := j.compact(); err != nil {
				e.t.Fatalf("compact: %v", err)
			}
			e.wantItems(j, 3, 4, 5)
			j.Close()
			j = e.open(1000, 3)
			defer j.Close()
			e.wantItems(j, 3, 4, 5)
			if st := j.stats(); st.Replayed != 0 {
				e.t.Fatalf("replayed %d lines after compaction, want 0", st.Replayed)
			}
		}},
		{"append_after_close", func(e crashEnv) {
			j := e.open(0, 0)
			e.add(j, 0)
			if err := j.Close(); err != nil {
				e.t.Fatal(err)
			}
			if err := j.add(1); err == nil {
				e.t.Fatal("append after Close succeeded")
			}
			if err := j.Close(); err != nil {
				e.t.Fatalf("second Close: %v", err)
			}
		}},
		{"corrupt_snapshot", func(e crashEnv) {
			// A torn snapshot.json fails the job journal's Open — it is
			// the only record of in-flight jobs — but starts the memo
			// log cold: it still replays its WAL, and its next
			// compaction overwrites the bad file.
			j := e.open(2, 0)
			e.add(j, 0, 1, 2) // compacts after 1; item 2 is in the WAL
			j.Close()
			snap := e.read("snapshot.json")
			e.write("snapshot.json", snap[:len(snap)/2])

			j, err := e.m.open(e.dir, 2, 0)
			if !e.m.corruptSnapshotOpens {
				if err == nil {
					j.Close()
					e.t.Fatal("Open succeeded on a corrupt snapshot")
				}
				return
			}
			if err != nil {
				e.t.Fatalf("Open on a corrupt snapshot: %v", err)
			}
			e.wantItems(j, 2)
			e.add(j, 3, 4) // the 2nd append compacts over the bad file
			j.Close()
			j = e.open(2, 0)
			defer j.Close()
			e.wantItems(j, 2, 3, 4)
		}},
	}
	for _, m := range machines {
		for _, sc := range scenarios {
			t.Run(m.name+"/"+sc.name, func(t *testing.T) {
				sc.run(crashEnv{t: t, m: m, dir: t.TempDir()})
			})
		}
	}
}
