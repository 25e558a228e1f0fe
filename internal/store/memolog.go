package store

import (
	"encoding/json"
	"sync"
)

// MemoLog is the durable side of the sweep memo: a journal of (key,
// canonical JSON value) memo entries under its own directory —
// greendimmd uses <store-dir>/memo/ — on the same log as the job
// journal (see the package comment), so a daemon that crashed or
// restarted reopens the log and boots with its baseline cells warm
// instead of recomputing them.
//
// The log stores opaque versioned entries; it does not decode values or
// know key families. Verification happens above it on both sides:
// sweep.Memo.Import runs every replayed entry through the experiment
// codec (strict decode + re-marshal byte equality) before trusting it,
// so a corrupt or stale log entry degrades to recomputation, never to a
// divergent result. For the same reason a snapshot the log cannot use
// starts it cold instead of failing the open.
type MemoLog struct {
	opts MemoLogOptions

	mu      sync.Mutex
	log     *wal[*memoWALEntry]
	entries orderedCells
}

// MemoLogOptions tunes a MemoLog. Zero values take defaults.
type MemoLogOptions struct {
	// SnapshotEvery compacts the WAL after this many appends (default
	// 256). Every append is synced, so the interval bounds replay work,
	// not durability.
	SnapshotEvery int
	// MaxEntries bounds retained entries (default 4096): at snapshot
	// time the oldest entries beyond the bound are dropped — the disk
	// analogue of the memo's LRU cap, and equally result-neutral.
	MaxEntries int
}

func (o MemoLogOptions) withDefaults() MemoLogOptions {
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 256
	}
	if o.MaxEntries <= 0 {
		o.MaxEntries = 4096
	}
	return o
}

// MemoLogStats is one consistent read of the log's accounting.
type MemoLogStats struct {
	Entries int
	LogStats
}

// memoLogVersion is the entry format version journaled with every
// record. Replay skips records from other versions, so a log written by
// a future format reads as empty, not as garbage.
const memoLogVersion = 1

// memoWALEntry is one memo-log WAL record.
type memoWALEntry struct {
	Seq   uint64          `json:"seq"`
	V     int             `json:"v"`
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

func (e *memoWALEntry) setSeq(seq uint64) { e.Seq = seq }

// memoSnapshotFile is the on-disk snapshot shape.
type memoSnapshotFile struct {
	Seq     uint64 `json:"seq"`
	V       int    `json:"v"`
	Entries []Cell `json:"entries"`
}

// OpenMemoLog loads (or initializes) the memo log in dir.
func OpenMemoLog(dir string, opts MemoLogOptions) (*MemoLog, error) {
	opts = opts.withDefaults()
	l := &MemoLog{opts: opts}
	log, err := openWAL[*memoWALEntry]("store: memo log", dir, opts.SnapshotEvery, l)
	if err != nil {
		return nil, err
	}
	l.log = log
	return l, nil
}

// restore installs a snapshot. One from another format version keeps
// only its seq, and one that does not decode is ignored: either way the
// log starts cold, still replays its WAL, and its next compaction
// overwrites the file.
func (l *MemoLog) restore(b []byte) (uint64, error) {
	var snap memoSnapshotFile
	if err := json.Unmarshal(b, &snap); err != nil {
		return 0, nil
	}
	if snap.V == memoLogVersion {
		for _, c := range snap.Entries {
			l.entries.add(c.Key, c.Value)
		}
	}
	return snap.Seq, nil
}

func (l *MemoLog) decode(body []byte) (uint64, *memoWALEntry, error) {
	e := new(memoWALEntry)
	err := json.Unmarshal(body, e)
	return e.Seq, e, err
}

// apply installs one entry unless it is from another format version;
// the first write of a key wins. Caller holds mu or is single-threaded
// replay.
func (l *MemoLog) apply(e *memoWALEntry) {
	if e.V == memoLogVersion {
		l.entries.add(e.Key, e.Value)
	}
}

// snapshot drops the oldest entries beyond MaxEntries and returns the
// rest as the snapshot at seq. Caller holds mu.
func (l *MemoLog) snapshot(seq uint64) any {
	if excess := len(l.entries.order) - l.opts.MaxEntries; excess > 0 {
		l.entries.dropOldest(excess)
	}
	return memoSnapshotFile{Seq: seq, V: memoLogVersion, Entries: l.entries.list()}
}

// Put journals one memo entry. A key already present is skipped without
// touching the WAL: entries are deterministic, so a duplicate carries no
// new information and repeat sweeps must not grow the log.
func (l *MemoLog) Put(key string, value json.RawMessage) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.entries.has(key) {
		return nil
	}
	return l.log.append(&memoWALEntry{V: memoLogVersion, Key: key, Value: compactJSON(value)})
}

// Entries returns every retained entry in insertion order (oldest
// first), so importing into an LRU-bounded memo leaves the newest
// entries most recently used.
func (l *MemoLog) Entries() []Cell {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries.list()
}

// Len reports the number of retained entries.
func (l *MemoLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries.order)
}

// Stats returns one consistent read of the log's accounting.
func (l *MemoLog) Stats() MemoLogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return MemoLogStats{Entries: len(l.entries.order), LogStats: l.log.stats}
}

// Close releases the WAL file handle. Further Puts of new keys fail.
func (l *MemoLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.close()
}
