package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func mustDo(t *testing.T, name string, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestLifecycleReplay drives one job through accept → plan → cells →
// ranges → finish, reopens the store, and checks every detail survived
// the WAL replay.
func TestLifecycleReplay(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	mustDo(t, "Accept", s.Accept("h1", json.RawMessage(`{"kind":"experiment","experiment":"fig8"}`)))
	mustDo(t, "Plan", s.Plan("h1", 12, [][2]int{{0, 6}, {6, 12}}))
	mustDo(t, "PutCell", s.PutCell("h1", "timing|a", json.RawMessage(`{"v":1}`)))
	mustDo(t, "PutCell", s.PutCell("h1", "timing|b", json.RawMessage(`{"v":2}`)))
	mustDo(t, "RangeDone", s.RangeDone("h1", 0, 6))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s = open(t, dir, Options{})
	defer s.Close()
	rec, ok := s.Get("h1")
	if !ok {
		t.Fatal("record lost across reopen")
	}
	if rec.State != StateSharded || rec.Total != 12 || rec.CellCount != 2 {
		t.Fatalf("replayed record = %+v", rec)
	}
	if !reflect.DeepEqual(rec.Done, [][2]int{{0, 6}}) {
		t.Fatalf("done ranges = %v", rec.Done)
	}
	if !reflect.DeepEqual(rec.Planned, [][2]int{{0, 6}, {6, 12}}) {
		t.Fatalf("planned ranges = %v", rec.Planned)
	}
	pend := s.Pending()
	if len(pend) != 1 || pend[0].Hash != "h1" {
		t.Fatalf("Pending = %+v, want the one open job", pend)
	}
	cells, done := s.Resume("h1")
	if len(cells) != 2 || cells[0].Key != "timing|a" || string(cells[1].Value) != `{"v":2}` {
		t.Fatalf("Resume cells = %+v", cells)
	}
	if !reflect.DeepEqual(done, [][2]int{{0, 6}}) {
		t.Fatalf("Resume done = %v", done)
	}

	// Finish, reopen: the job is terminal, off the pending list, but its
	// cells survive for a resubmission to resume from.
	mustDo(t, "Finish", s.Finish("h1", StateMerged, ""))
	s.Close()
	s = open(t, dir, Options{})
	defer s.Close()
	if got := s.Pending(); len(got) != 0 {
		t.Fatalf("Pending after finish = %+v", got)
	}
	if rec, _ := s.Get("h1"); rec.State != StateMerged || rec.CellCount != 2 {
		t.Fatalf("finished record = %+v", rec)
	}

	// Re-accepting the same hash re-opens it with its cells intact.
	mustDo(t, "re-Accept", s.Accept("h1", nil))
	rec, _ = s.Get("h1")
	if rec.State != StateAccepted || rec.CellCount != 2 {
		t.Fatalf("re-accepted record = %+v", rec)
	}
	if string(rec.Spec) == "" {
		t.Fatal("re-accept with nil spec dropped the stored spec")
	}
}

// TestPutCellDedup checks a duplicate key neither mutates state nor
// grows the WAL — resume must not re-journal replayed cells.
func TestPutCellDedup(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	defer s.Close()
	mustDo(t, "Accept", s.Accept("h1", json.RawMessage(`{}`)))
	mustDo(t, "PutCell", s.PutCell("h1", "k", json.RawMessage(`{"v":1}`)))
	before, _ := os.ReadFile(filepath.Join(dir, "wal.log"))
	mustDo(t, "dup PutCell", s.PutCell("h1", "k", json.RawMessage(`{"v":999}`)))
	after, _ := os.ReadFile(filepath.Join(dir, "wal.log"))
	if !bytes.Equal(before, after) {
		t.Fatal("duplicate PutCell grew the WAL")
	}
	cells, _ := s.Resume("h1")
	if len(cells) != 1 || string(cells[0].Value) != `{"v":1}` {
		t.Fatalf("dedup kept wrong value: %+v", cells)
	}
	// Mutations on an unknown hash are silent no-ops.
	mustDo(t, "unknown-hash PutCell", s.PutCell("nope", "k", json.RawMessage(`{}`)))
	if _, ok := s.Get("nope"); ok {
		t.Fatal("unknown-hash mutation created a record")
	}
}

// TestMaxSpecsPrune accepts and finishes more specs than MaxSpecs and
// checks snapshot-time pruning drops the oldest terminal ones while
// never touching a non-terminal record.
func TestMaxSpecsPrune(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxSpecs: 3, SnapshotEvery: 1000})
	mustDo(t, "Accept open", s.Accept("open", json.RawMessage(`{}`)))
	for i := 0; i < 5; i++ {
		h := fmt.Sprintf("t%d", i)
		mustDo(t, "Accept", s.Accept(h, json.RawMessage(`{}`)))
		mustDo(t, "PutCell", s.PutCell(h, "k", json.RawMessage(`{"v":1}`)))
		mustDo(t, "Finish", s.Finish(h, StateMerged, ""))
	}
	s.mu.Lock()
	err := s.log.compact()
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if st := s.Stats(); st.Specs != 3 {
		t.Fatalf("Specs after prune = %d, want 3", st.Specs)
	}
	if _, ok := s.Get("open"); !ok {
		t.Fatal("prune dropped a non-terminal record")
	}
	for _, h := range []string{"t0", "t1", "t2"} {
		if _, ok := s.Get(h); ok {
			t.Fatalf("oldest terminal %s survived prune", h)
		}
	}
	for _, h := range []string{"t3", "t4"} {
		if rec, ok := s.Get(h); !ok || rec.CellCount != 1 {
			t.Fatalf("newest terminal %s lost (ok=%v rec=%+v)", h, ok, rec)
		}
	}
	s.Close()

	// The pruned shape is what persists.
	s = open(t, dir, Options{})
	defer s.Close()
	if st := s.Stats(); st.Specs != 3 {
		t.Fatalf("Specs after reopen = %d, want 3", st.Specs)
	}
}

// TestOpenRejectsDuplicateHashSnapshot feeds Open a job snapshot that
// names one hash twice. Accepted, it would hand the record to Pending
// twice, so a restarted daemon would recover two jobs for one spec, and
// the first compaction that pruned the record would dereference the
// map entry its first copy had deleted.
func TestOpenRejectsDuplicateHashSnapshot(t *testing.T) {
	dir := t.TempDir()
	rec := `{"hash":"h1","spec":{},"state":"accepted"}`
	snap := `{"seq":2,"records":[` + rec + `,` + rec + `]}`
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{SnapshotEvery: 1, MaxSpecs: 1})
	if err == nil {
		n := len(s.Pending())
		s.Close()
		t.Fatalf("Open accepted a snapshot naming h1 twice (%d pending records)", n)
	}
	if !strings.Contains(err.Error(), `"h1"`) {
		t.Fatalf("Open error %q does not name the hash", err)
	}
}

// TestAddRange covers the merge arithmetic directly.
func TestAddRange(t *testing.T) {
	cases := []struct {
		in     [][2]int
		lo, hi int
		want   [][2]int
	}{
		{nil, 0, 4, [][2]int{{0, 4}}},
		{[][2]int{{0, 4}}, 4, 8, [][2]int{{0, 8}}},            // adjacent merges
		{[][2]int{{0, 4}}, 6, 8, [][2]int{{0, 4}, {6, 8}}},    // disjoint
		{[][2]int{{0, 4}, {6, 8}}, 3, 7, [][2]int{{0, 8}}},    // bridges both
		{[][2]int{{4, 8}}, 0, 2, [][2]int{{0, 2}, {4, 8}}},    // insert before
		{[][2]int{{0, 4}}, 1, 3, [][2]int{{0, 4}}},            // contained
		{[][2]int{{0, 4}}, 4, 4, [][2]int{{0, 4}}},            // empty ignored
		{[][2]int{{2, 4}, {8, 10}}, 0, 12, [][2]int{{0, 12}}}, // swallows all
	}
	for _, c := range cases {
		if got := addRange(append([][2]int(nil), c.in...), c.lo, c.hi); !reflect.DeepEqual(got, c.want) {
			t.Errorf("addRange(%v, %d, %d) = %v, want %v", c.in, c.lo, c.hi, got, c.want)
		}
	}
}

// TestCellsRoundTripAcrossReopen checks the memo's view of the journal
// survives recovery: every record's cells, oldest record first, each in
// journal order.
func TestCellsRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	mustDo(t, "Accept", s.Accept("h1", json.RawMessage(`{}`)))
	for i := 0; i < 3; i++ {
		mustDo(t, "PutCell", s.PutCell("h1", fmt.Sprintf("k%d", i), json.RawMessage(fmt.Sprint(i))))
	}
	mustDo(t, "Accept", s.Accept("h2", json.RawMessage(`{}`)))
	for i := 3; i < 5; i++ {
		mustDo(t, "PutCell", s.PutCell("h2", fmt.Sprintf("k%d", i), json.RawMessage(fmt.Sprint(i))))
	}
	mustDo(t, "Close", s.Close())

	s = open(t, dir, Options{})
	defer s.Close()
	got := s.Cells()
	if len(got) != 5 {
		t.Fatalf("recovered %d cells, want 5", len(got))
	}
	for i, c := range got {
		if c.Key != fmt.Sprintf("k%d", i) || string(c.Value) != fmt.Sprint(i) {
			t.Fatalf("cell %d = %s=%s, want k%d=%d", i, c.Key, c.Value, i, i)
		}
	}
	if st := s.Stats(); st.Replayed != 7 || st.TruncatedTail {
		t.Fatalf("stats = %+v, want 7 replayed, no truncation", st)
	}
}

// TestCellsNewestRecordWins journals one key under an old and the newest
// record: Cells hands it out once, at the newest record's place with
// its write, so an LRU-bounded import of the list keeps the key while it
// keeps the newest record's other cells; pruning the old record changes
// nothing.
func TestCellsNewestRecordWins(t *testing.T) {
	s := open(t, t.TempDir(), Options{MaxSpecs: 2, SnapshotEvery: 1000})
	defer s.Close()
	for _, r := range []struct {
		hash  string
		cells []Cell
	}{
		{"old", []Cell{{"k", json.RawMessage(`1`)}, {"a", json.RawMessage(`0`)}}},
		{"mid", []Cell{{"m", json.RawMessage(`5`)}}},
		{"new", []Cell{{"k", json.RawMessage(`2`)}, {"j", json.RawMessage(`3`)}}},
	} {
		mustDo(t, "Accept", s.Accept(r.hash, json.RawMessage(`{}`)))
		for _, c := range r.cells {
			mustDo(t, "PutCell", s.PutCell(r.hash, c.Key, c.Value))
		}
		mustDo(t, "Finish", s.Finish(r.hash, StateMerged, ""))
	}
	want := []Cell{{"a", json.RawMessage(`0`)}, {"m", json.RawMessage(`5`)}, {"k", json.RawMessage(`2`)}, {"j", json.RawMessage(`3`)}}
	if got := s.Cells(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Cells = %s, want %s", got, want)
	}
	mustDo(t, "compact", compact(s))
	if got := s.Cells(); !reflect.DeepEqual(got, want[1:]) {
		t.Fatalf("Cells after pruning the old record = %s, want %s", got, want[1:])
	}
}

// TestMaxSpecsPruneCellLessFirst interleaves terminal records that hold
// cells with records that hold none, as a daemon's mix of experiment and
// VM-scenario jobs does, and resubmits the oldest record with cells.
// Compaction drops every cell-less record before any record with cells,
// and among those the least recently accepted, so the resubmitted
// record survives and the journal keeps the cells the bound allows.
func TestMaxSpecsPruneCellLessFirst(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxSpecs: 4, SnapshotEvery: 1000})
	for i := 0; i < 6; i++ {
		h := fmt.Sprintf("c%d", i)
		mustDo(t, "Accept", s.Accept(h, json.RawMessage(`{}`)))
		mustDo(t, "PutCell", s.PutCell(h, h, json.RawMessage(`1`)))
		mustDo(t, "Finish", s.Finish(h, StateMerged, ""))
		h = fmt.Sprintf("v%d", i)
		mustDo(t, "Accept", s.Accept(h, json.RawMessage(`{}`)))
		mustDo(t, "Finish", s.Finish(h, StateMerged, ""))
	}
	mustDo(t, "Accept", s.Accept("c0", nil))
	mustDo(t, "Finish", s.Finish("c0", StateMerged, ""))
	mustDo(t, "compact", compact(s))
	s.Close()
	s = open(t, dir, Options{MaxSpecs: 4})
	defer s.Close()
	for i := 0; i < 6; i++ {
		if _, ok := s.Get(fmt.Sprintf("v%d", i)); ok {
			t.Fatalf("cell-less record v%d survived while records with cells were pruned", i)
		}
		if _, ok := s.Get(fmt.Sprintf("c%d", i)); ok != (i == 0 || i >= 3) {
			t.Fatalf("record c%d retained = %v, want the four most recently accepted", i, ok)
		}
	}
	want := []Cell{{"c3", json.RawMessage(`1`)}, {"c4", json.RawMessage(`1`)}, {"c5", json.RawMessage(`1`)}, {"c0", json.RawMessage(`1`)}}
	if got := s.Cells(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Cells after prune = %s, want %s", got, want)
	}
}

// BenchmarkStorePutCell times one fsync'd journal append: a new cell of
// about 1 KB, the only durable write a daemon makes per computed cell.
// Compaction is pushed past the run, so the time is the append's alone.
func BenchmarkStorePutCell(b *testing.B) {
	s, err := Open(b.TempDir(), Options{SnapshotEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Accept("h", json.RawMessage(`{"kind":"experiment"}`)); err != nil {
		b.Fatal(err)
	}
	value := json.RawMessage(`{"v":"` + strings.Repeat("x", 1000) + `"}`)
	b.SetBytes(int64(len(value)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.PutCell("h", "timing|"+strconv.Itoa(i), value); err != nil {
			b.Fatal(err)
		}
	}
}
