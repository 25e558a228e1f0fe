package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// LogStats is the accounting the log under the journal keeps.
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

// wal is the write-ahead log plus snapshot under the journal directory,
// and the only code that touches its two files:
//
//	wal.log        one record per line, "<crc32-hex8> <json>\n", the JSON
//	               an entry with a monotonically increasing seq
//	snapshot.json  the Store's full state as of some seq
//
// Every append is fsynced before it is applied. Compaction writes and
// fsyncs snapshot.json.tmp, renames it over snapshot.json, fsyncs the
// directory so the rename is durable, and only then truncates the WAL.
// A crash anywhere in that sequence leaves either the old snapshot and
// the whole WAL, or the new snapshot and stale WAL lines whose seq it
// already covers, which replay skips.
//
// The wal calls back into its Store: restore with the snapshot's bytes
// at open, apply with every replayed or appended entry, and snapshot at
// compaction. A wal does no locking: its Store serializes every call.
type wal struct {
	dir     string
	every   int // appends between compactions
	m       *Store
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
func openWAL(dir string, every int, m *Store) (*wal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	l := &wal{dir: dir, every: every, m: m}
	if err := l.replay(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(l.path("wal.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	l.f = f
	return l, nil
}

func (l *wal) path(file string) string { return filepath.Join(l.dir, file) }

func (l *wal) replay() error {
	snap, err := os.ReadFile(l.path("snapshot.json"))
	switch {
	case err == nil:
		if l.seq, err = l.m.restore(snap); err != nil {
			return fmt.Errorf("store: corrupt snapshot: %w", err)
		}
	case !os.IsNotExist(err):
		return fmt.Errorf("store: reading snapshot: %w", err)
	}
	b, err := os.ReadFile(l.path("wal.log"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: reading wal: %w", err)
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
		e, err := decodeEntry(body)
		if err != nil {
			break
		}
		if e.Seq > l.seq {
			l.m.apply(e)
			l.seq = e.Seq
			l.stats.Replayed++
		}
		off += nl + 1
	}
	if off < len(b) {
		l.stats.TruncatedTail = true
		if err := os.Truncate(l.path("wal.log"), int64(off)); err != nil {
			return fmt.Errorf("store: truncating torn wal tail: %w", err)
		}
	}
	return nil
}

// append stamps e with the next seq, writes and fsyncs its line, applies
// it, and compacts when every appends have accumulated.
func (l *wal) append(e *walEntry) error {
	if l.f == nil {
		return errors.New("store: closed")
	}
	l.seq++
	e.Seq = l.seq
	body, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: encoding wal entry: %w", err)
	}
	if _, err := l.f.WriteString(encodeLine(body)); err != nil {
		return fmt.Errorf("store: appending wal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing wal: %w", err)
	}
	l.m.apply(e)
	l.stats.Appends++
	l.pending++
	if l.pending >= l.every {
		return l.compact()
	}
	return nil
}

// compact replaces snapshot.json with the Store's snapshot and
// empties the WAL, in the crash-safe order described on wal.
func (l *wal) compact() error {
	b, err := json.Marshal(l.m.snapshot(l.seq))
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	tmp := l.path("snapshot.json.tmp")
	if err := writeSynced(tmp, b); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, l.path("snapshot.json")); err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("store: syncing snapshot rename: %w", err)
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating wal: %w", err)
	}
	l.pending = 0
	l.stats.Snapshots++
	return nil
}

// close releases the WAL file; later appends fail.
func (l *wal) close() error {
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
