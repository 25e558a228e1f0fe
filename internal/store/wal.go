package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// LogStats is the accounting the log under each journal keeps.
type LogStats struct {
	// Appends counts WAL records written by this process; Snapshots
	// counts compactions.
	Appends   int64
	Snapshots int64
	// Replayed counts WAL records replayed at open; TruncatedTail is set
	// when open cut a torn or corrupt tail off the WAL.
	Replayed      int64
	TruncatedTail bool
}

// entry is one WAL record of a journal. Its JSON form starts with the
// seq the log stamps on it at append.
type entry interface{ setSeq(seq uint64) }

// machine is a journal's in-memory state, as the log under it drives it.
type machine[E entry] interface {
	// restore installs the contents of snapshot.json and returns the seq
	// they were taken at.
	restore(snap []byte) (seq uint64, err error)
	// decode parses one WAL line's JSON body into its seq and entry.
	decode(body []byte) (seq uint64, e E, err error)
	// apply installs one entry, replayed at open or just appended.
	apply(e E)
	// snapshot prunes the state and returns it as the snapshot at seq.
	snapshot(seq uint64) any
}

// wal is the write-ahead log plus snapshot under one journal directory,
// and the only code that touches its two files:
//
//	wal.log        one record per line, "<crc32-hex8> <json>\n", the JSON
//	               an entry with a monotonically increasing seq
//	snapshot.json  the machine's full state as of some seq
//
// Every append is fsynced before it is applied. Compaction writes and
// fsyncs snapshot.json.tmp, renames it over snapshot.json, fsyncs the
// directory so the rename is durable, and only then truncates the WAL.
// A crash anywhere in that sequence leaves either the old snapshot and
// the whole WAL, or the new snapshot and stale WAL lines whose seq it
// already covers, which replay skips.
//
// A wal does no locking: its machine serializes every call.
type wal[E entry] struct {
	name    string // error prefix
	dir     string
	every   int // appends between compactions
	m       machine[E]
	f       *os.File // nil once closed
	seq     uint64
	pending int // appends since the last compaction
	stats   LogStats
}

// openWAL recovers m from dir. It loads snapshot.json through
// m.restore, then applies every WAL line whose seq is past the
// snapshot's. Replay stops at the first torn or corrupt line — a crash
// mid-append leaves at most one partial record at the tail — and cuts
// the file there, so the next append continues from a clean state.
func openWAL[E entry](name, dir string, every int, m machine[E]) (*wal[E], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	l := &wal[E]{name: name, dir: dir, every: every, m: m}
	if err := l.replay(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(l.path("wal.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	l.f = f
	return l, nil
}

func (l *wal[E]) path(file string) string { return filepath.Join(l.dir, file) }

func (l *wal[E]) replay() error {
	snap, err := os.ReadFile(l.path("snapshot.json"))
	switch {
	case err == nil:
		if l.seq, err = l.m.restore(snap); err != nil {
			return fmt.Errorf("%s: corrupt snapshot: %w", l.name, err)
		}
	case !os.IsNotExist(err):
		return fmt.Errorf("%s: reading snapshot: %w", l.name, err)
	}
	b, err := os.ReadFile(l.path("wal.log"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("%s: reading wal: %w", l.name, err)
	}
	off := 0
	for off < len(b) {
		nl := bytes.IndexByte(b[off:], '\n')
		if nl < 0 {
			break // torn tail: no newline
		}
		body, ok := checkLine(b[off : off+nl])
		if !ok {
			break // corrupt from here on; cut the tail
		}
		seq, e, err := l.m.decode(body)
		if err != nil {
			break
		}
		if seq > l.seq {
			l.m.apply(e)
			l.seq = seq
			l.stats.Replayed++
		}
		off += nl + 1
	}
	if off < len(b) {
		l.stats.TruncatedTail = true
		if err := os.Truncate(l.path("wal.log"), int64(off)); err != nil {
			return fmt.Errorf("%s: truncating torn wal tail: %w", l.name, err)
		}
	}
	return nil
}

// append stamps e with the next seq, writes and fsyncs its line, applies
// it, and compacts when every appends have accumulated.
func (l *wal[E]) append(e E) error {
	if l.f == nil {
		return fmt.Errorf("%s: closed", l.name)
	}
	l.seq++
	e.setSeq(l.seq)
	body, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("%s: encoding wal entry: %w", l.name, err)
	}
	if _, err := l.f.WriteString(encodeLine(body)); err != nil {
		return fmt.Errorf("%s: appending wal: %w", l.name, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("%s: syncing wal: %w", l.name, err)
	}
	l.m.apply(e)
	l.stats.Appends++
	l.pending++
	if l.pending >= l.every {
		return l.compact()
	}
	return nil
}

// compact replaces snapshot.json with the machine's snapshot and
// empties the WAL, in the crash-safe order described on wal.
func (l *wal[E]) compact() error {
	b, err := json.Marshal(l.m.snapshot(l.seq))
	if err != nil {
		return fmt.Errorf("%s: encoding snapshot: %w", l.name, err)
	}
	tmp := l.path("snapshot.json.tmp")
	if err := writeSynced(tmp, b); err != nil {
		return fmt.Errorf("%s: writing snapshot: %w", l.name, err)
	}
	if err := os.Rename(tmp, l.path("snapshot.json")); err != nil {
		return fmt.Errorf("%s: publishing snapshot: %w", l.name, err)
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("%s: syncing snapshot rename: %w", l.name, err)
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("%s: truncating wal: %w", l.name, err)
	}
	l.pending = 0
	l.stats.Snapshots++
	return nil
}

// close releases the WAL file; later appends fail.
func (l *wal[E]) close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// writeSynced writes b to path and fsyncs it before closing.
func writeSynced(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// checkLine validates one WAL line's "<crc8hex> <json>" framing and
// checksum, returning the JSON body.
func checkLine(line []byte) ([]byte, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, false
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
		return nil, false
	}
	body := line[9:]
	if crc32.ChecksumIEEE(body) != sum {
		return nil, false
	}
	return body, true
}

// encodeLine frames a JSON body as one checksummed WAL line.
func encodeLine(body []byte) string {
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(body), body)
}

// compactJSON normalizes whitespace so replayed bytes compare equal to
// freshly marshaled ones. Invalid JSON passes through unchanged.
func compactJSON(raw json.RawMessage) json.RawMessage {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return raw
	}
	return buf.Bytes()
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

// dropOldest removes the n oldest cells.
func (c *orderedCells) dropOldest(n int) {
	for _, k := range c.order[:n] {
		delete(c.vals, k)
	}
	c.order = append([]string(nil), c.order[n:]...)
}

// list returns the cells oldest first.
func (c *orderedCells) list() []Cell {
	out := make([]Cell, 0, len(c.order))
	for _, k := range c.order {
		out = append(out, Cell{Key: k, Value: c.vals[k]})
	}
	return out
}
