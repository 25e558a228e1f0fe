// Package store holds greendimmd's durable job journal, a small state
// machine over a write-ahead log plus snapshot (wal.go). Store records,
// per content-addressed spec hash (server.SpecHash), the job's lifecycle
// state, its shard plan and completed cell ranges, and every completed
// sweep-cell artifact. It is what lets queued and running jobs survive a
// daemon restart, lets a resubmitted identical spec resume from its
// completed cells instead of recomputing them, and lets a restarted
// daemon boot with its memo warm: Cells hands every retained cell to the
// memo, whichever spec journaled it. `greendimm -memo-dir` writes the
// same journal, so its directory is a valid greendimmd -store-dir.
//
// The journal owns one directory holding wal.log (one CRC-framed JSON
// entry per line, with a monotonically increasing seq) and
// snapshot.json (the full state as of some seq). Recovery loads the
// snapshot, replays the WAL entries past its seq, and cuts the WAL at
// the first torn or corrupt line; compaction writes a new snapshot and
// then truncates the WAL. The wal type documents the crash-safe order.
// Nothing else in the directory is read: a memo/ subdirectory that
// earlier builds kept beside the journal is ignored.
//
// The store knows nothing about specs or simulation: specs are opaque
// JSON, cells are opaque (key, JSON value) pairs whose keys are the
// experiment layer's memo fingerprints. Verification that a replayed
// cell is byte-exact happens above, where sweep.Memo.Import runs it
// through exp.MemoCodec, not here.
package store

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
)

// State is a recorded job's lifecycle state. Jobs move accepted →
// sharded → (ranges complete) → merged/failed/canceled; only the three
// last are terminal. A daemon crash leaves the record non-terminal,
// which is exactly what marks it for recovery on the next boot.
type State string

const (
	StateAccepted State = "accepted"
	StateSharded  State = "sharded"
	StateMerged   State = "merged"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateMerged || s == StateFailed || s == StateCanceled
}

// Cell is one durable sweep-cell artifact.
type Cell struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// Record is the exported snapshot of one spec's journal entry.
type Record struct {
	Hash  string          `json:"hash"`
	Spec  json.RawMessage `json:"spec"`
	State State           `json:"state"`
	Err   string          `json:"err,omitempty"`
	// Total is the planned sweep cell count (0 until a shard plan lands).
	Total int `json:"total,omitempty"`
	// Planned holds the shard plan's [lo,hi) ranges; Done the completed
	// ones (disjoint, but not necessarily aligned with Planned after a
	// re-shard).
	Planned [][2]int `json:"planned,omitempty"`
	Done    [][2]int `json:"done,omitempty"`
	// CellCount is the number of journaled artifacts.
	CellCount int `json:"cell_count,omitempty"`
}

// Options tunes a Store. Zero values take defaults.
type Options struct {
	// SnapshotEvery compacts the WAL into a snapshot after this many
	// appended records (default 512). Cell artifacts dominate WAL bytes,
	// so the interval bounds replay work, not durability — every append
	// is synced.
	SnapshotEvery int
	// MaxSpecs bounds retained records (default 256): at snapshot time
	// terminal records are dropped, least recently accepted first, those
	// that hold no cells before those with cells, so the retained records
	// keep as many cells as the bound allows for the memo to warm from.
	// Non-terminal records are never dropped.
	MaxSpecs int
}

func (o Options) withDefaults() Options {
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 512
	}
	if o.MaxSpecs <= 0 {
		o.MaxSpecs = 256
	}
	return o
}

// Stats is one consistent read of the store's accounting.
type Stats struct {
	// Specs and Cells count retained records and artifacts.
	Specs int
	Cells int
	LogStats
}

// record is the internal mutable form.
type record struct {
	hash    string
	spec    json.RawMessage
	state   State
	errMsg  string
	total   int
	planned [][2]int
	done    [][2]int
	cells   orderedCells
}

func (r *record) view() Record {
	return Record{
		Hash:      r.hash,
		Spec:      r.spec,
		State:     r.state,
		Err:       r.errMsg,
		Total:     r.total,
		Planned:   append([][2]int(nil), r.planned...),
		Done:      append([][2]int(nil), r.done...),
		CellCount: len(r.cells.order),
	}
}

// walEntry is one WAL record. Op selects which fields are meaningful.
type walEntry struct {
	Seq  uint64 `json:"seq"`
	Op   string `json:"op"` // accept | plan | range | cell | finish
	Hash string `json:"hash"`

	Spec   json.RawMessage `json:"spec,omitempty"`   // accept
	State  State           `json:"state,omitempty"`  // finish
	Err    string          `json:"err,omitempty"`    // finish
	Total  int             `json:"total,omitempty"`  // plan
	Ranges [][2]int        `json:"ranges,omitempty"` // plan
	Lo     int             `json:"lo,omitempty"`     // range
	Hi     int             `json:"hi,omitempty"`     // range
	Key    string          `json:"key,omitempty"`    // cell
	Value  json.RawMessage `json:"value,omitempty"`  // cell
}

// decodeEntry parses one WAL line's JSON body.
func decodeEntry(body []byte) (*walEntry, error) {
	e := new(walEntry)
	return e, json.Unmarshal(body, e)
}

// snapshotFile is the on-disk snapshot shape.
type snapshotFile struct {
	Seq     uint64       `json:"seq"`
	Records []snapRecord `json:"records"`
}

type snapRecord struct {
	Record
	Cells []Cell `json:"cells,omitempty"`
}

// Store is the durable job journal. All methods are safe for concurrent
// use; appends are serialized and synced before returning.
type Store struct {
	opts Options

	mu    sync.Mutex
	log   *wal
	recs  map[string]*record
	order []string // hashes, least recently accepted first
}

// Open loads (or initializes) the store in dir, recovering its state
// from the snapshot and WAL found there.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{opts: opts, recs: make(map[string]*record)}
	log, err := openWAL(dir, opts.SnapshotEvery, s)
	if err != nil {
		return nil, err
	}
	s.log = log
	return s, nil
}

// restore installs a snapshot. A snapshot that does not decode, or that
// names one hash twice, fails Open: the journal is the only record of
// which jobs were in flight, and a repeated hash would recover one job
// twice.
func (s *Store) restore(b []byte) (uint64, error) {
	var snap snapshotFile
	if err := json.Unmarshal(b, &snap); err != nil {
		return 0, err
	}
	for _, sr := range snap.Records {
		if _, dup := s.recs[sr.Hash]; dup {
			return 0, fmt.Errorf("hash %q recorded twice", sr.Hash)
		}
		r := &record{
			hash:    sr.Hash,
			spec:    sr.Spec,
			state:   sr.State,
			errMsg:  sr.Err,
			total:   sr.Total,
			planned: sr.Planned,
			done:    sr.Done,
		}
		for _, c := range sr.Cells {
			r.cells.add(c.Key, c.Value)
		}
		s.recs[sr.Hash] = r
		s.order = append(s.order, sr.Hash)
	}
	return snap.Seq, nil
}

// apply mutates in-memory state with one entry. Caller holds mu (or is
// single-threaded replay).
func (s *Store) apply(e *walEntry) {
	r := s.recs[e.Hash]
	switch e.Op {
	case "accept":
		if r == nil {
			r = &record{hash: e.Hash, spec: e.Spec}
			s.recs[e.Hash] = r
		} else {
			s.order = slices.DeleteFunc(s.order, func(h string) bool { return h == e.Hash })
		}
		// A (re-)accepted record becomes the newest, so compaction keeps
		// the specs still being submitted. Re-acceptance of a finished
		// spec re-opens it, keeping its journaled cells and completed
		// ranges: that is the resume path.
		s.order = append(s.order, e.Hash)
		r.state = StateAccepted
		r.errMsg = ""
		if len(e.Spec) > 0 {
			r.spec = e.Spec
		}
	case "plan":
		if r == nil {
			return
		}
		r.state = StateSharded
		r.total = e.Total
		r.planned = e.Ranges
	case "range":
		if r == nil {
			return
		}
		r.done = addRange(r.done, e.Lo, e.Hi)
	case "cell":
		if r == nil {
			return
		}
		r.cells.add(e.Key, e.Value)
	case "finish":
		if r == nil {
			return
		}
		r.state = e.State
		r.errMsg = e.Err
	}
}

// addRange inserts [lo,hi) keeping the set sorted and merged.
func addRange(done [][2]int, lo, hi int) [][2]int {
	if hi <= lo {
		return done
	}
	out := make([][2]int, 0, len(done)+1)
	placed := false
	for _, r := range done {
		switch {
		case r[1] < lo || (placed && r[0] > hi):
			out = append(out, r)
		case r[0] > hi:
			if !placed {
				out = append(out, [2]int{lo, hi})
				placed = true
			}
			out = append(out, r)
		default: // overlap or adjacency: merge
			if r[0] < lo {
				lo = r[0]
			}
			if r[1] > hi {
				hi = r[1]
			}
		}
	}
	if !placed {
		out = append(out, [2]int{lo, hi})
	}
	// Re-sort by lo: merging may have grown [lo,hi) past later entries
	// already copied; normalize with one more merge pass.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j][0] < out[j-1][0]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	merged := out[:0]
	for _, r := range out {
		if n := len(merged); n > 0 && r[0] <= merged[n-1][1] {
			if r[1] > merged[n-1][1] {
				merged[n-1][1] = r[1]
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// snapshot drops terminal records beyond MaxSpecs, cell-less ones
// first, and returns the full state as the snapshot at seq. Caller
// holds mu.
func (s *Store) snapshot(seq uint64) snapshotFile {
	excess := len(s.order) - s.opts.MaxSpecs
	// The first pass drops only records without cells: a job that
	// journals none (a VM scenario) leaves nothing to warm a memo from.
	for _, withCells := range []bool{false, true} {
		kept := s.order[:0]
		for _, h := range s.order {
			if r := s.recs[h]; excess > 0 && r.state.Terminal() && (withCells || len(r.cells.order) == 0) {
				delete(s.recs, h)
				excess--
				continue
			}
			kept = append(kept, h)
		}
		s.order = kept
	}
	snap := snapshotFile{Seq: seq}
	for _, h := range s.order {
		r := s.recs[h]
		snap.Records = append(snap.Records, snapRecord{Record: r.view(), Cells: r.cells.list()})
	}
	return snap
}

// Accept journals a spec's (re-)acceptance. An existing record —
// terminal or not — is re-opened in state accepted with its cells and
// completed ranges intact, which is how a resubmitted spec resumes.
func (s *Store) Accept(hash string, spec json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.recs[hash]; ok && r.state == StateAccepted {
		return nil // already open; keep the WAL quiet on duplicate submits
	}
	return s.log.append(&walEntry{Op: "accept", Hash: hash, Spec: compactJSON(spec)})
}

// Plan journals a shard plan: the sweep's total cell count and the
// planned [lo,hi) ranges. The record moves to state sharded.
func (s *Store) Plan(hash string, total int, ranges [][2]int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.recs[hash]; !ok {
		return nil // record pruned or never accepted; nothing to attach to
	}
	return s.log.append(&walEntry{Op: "plan", Hash: hash, Total: total, Ranges: ranges})
}

// RangeDone journals completion of cell range [lo,hi). Call only after
// the range's cells are journaled: recovery trusts a done range to be
// fully backed by artifacts (a violated ordering degrades to
// recomputation at merge, not to wrong bytes).
func (s *Store) RangeDone(hash string, lo, hi int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.recs[hash]; !ok {
		return nil
	}
	return s.log.append(&walEntry{Op: "range", Hash: hash, Lo: lo, Hi: hi})
}

// PutCell journals one completed cell artifact. A key already present
// is skipped without touching the WAL — cells are deterministic, so a
// duplicate carries no new information and resume must not grow the log.
func (s *Store) PutCell(hash, key string, value json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.recs[hash]
	if !ok || r.cells.has(key) {
		return nil
	}
	return s.log.append(&walEntry{Op: "cell", Hash: hash, Key: key, Value: compactJSON(value)})
}

// Finish journals a terminal state. st must be terminal.
func (s *Store) Finish(hash string, st State, errMsg string) error {
	if !st.Terminal() {
		return fmt.Errorf("store: Finish with non-terminal state %q", st)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.recs[hash]; !ok {
		return nil
	}
	return s.log.append(&walEntry{Op: "finish", Hash: hash, State: st, Err: errMsg})
}

// Get returns one record's snapshot.
func (s *Store) Get(hash string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.recs[hash]
	if !ok {
		return Record{}, false
	}
	return r.view(), true
}

// Pending returns every non-terminal record, least recently accepted
// first — the jobs a restarted daemon must re-enqueue.
func (s *Store) Pending() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Record
	for _, h := range s.order {
		if r := s.recs[h]; r != nil && !r.state.Terminal() {
			out = append(out, r.view())
		}
	}
	return out
}

// Resume returns a record's journaled cells (insertion order) and its
// completed ranges — everything a re-run needs to skip finished work.
func (s *Store) Resume(hash string) ([]Cell, [][2]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.recs[hash]
	if !ok {
		return nil, nil
	}
	return r.cells.list(), append([][2]int(nil), r.done...)
}

// Cells returns every retained record's cells for warming a memo, each
// key once: the write of the newest record that holds it, at that
// record's place. Records come least recently accepted first and each
// record's cells in journal order, so an LRU-bounded memo that imports
// the list in order keeps the cells the newest records use. Cells are
// deterministic, so an older write of a key carries no other bytes.
func (s *Store) Cells() []Cell {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool)
	var out []Cell
	for i := len(s.order) - 1; i >= 0; i-- {
		r := s.recs[s.order[i]]
		for j := len(r.cells.order) - 1; j >= 0; j-- {
			if k := r.cells.order[j]; !seen[k] {
				seen[k] = true
				out = append(out, Cell{Key: k, Value: r.cells.vals[k]})
			}
		}
	}
	slices.Reverse(out)
	return out
}

// Stats returns one consistent read of the store's accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Specs: len(s.recs), LogStats: s.log.stats}
	for _, r := range s.recs {
		st.Cells += len(r.cells.order)
	}
	return st
}

// Close releases the WAL file handle. Further mutations fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.close()
}

// orderedCells is an insertion-ordered set of cells in which the first
// write of a key wins: cells are deterministic, so a later write of the
// same key carries no new information.
type orderedCells struct {
	vals  map[string]json.RawMessage
	order []string // oldest first
}

func (c *orderedCells) has(key string) bool {
	_, ok := c.vals[key]
	return ok
}

func (c *orderedCells) add(key string, value json.RawMessage) {
	if c.has(key) {
		return
	}
	if c.vals == nil {
		c.vals = make(map[string]json.RawMessage)
	}
	c.vals[key] = value
	c.order = append(c.order, key)
}

// list returns the cells oldest first.
func (c *orderedCells) list() []Cell {
	out := make([]Cell, 0, len(c.order))
	for _, k := range c.order {
		out = append(out, Cell{Key: k, Value: c.vals[k]})
	}
	return out
}
