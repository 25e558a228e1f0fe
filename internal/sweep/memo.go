package sweep

import (
	"container/list"
	"encoding/json"
	"sort"
	"sync"
)

// Memo is a single-flight result cache for sweep cells keyed by config
// fingerprint. Matrix experiments share baseline cells — fig12 and fig13
// run the identical VM-trace day, the energy matrix re-runs the same
// timing configuration the standalone figures use — and because every
// cell is a deterministic function of its config, computing each
// distinct cell once and handing the stored result to later callers is
// result-neutral: the memoized output is byte-for-byte the output the
// caller would have computed.
//
// Concurrency: Do is safe from any number of goroutines. The first
// caller of a key computes; concurrent callers of the same key block
// until that computation finishes (single-flight), so two parallel
// sweeps never duplicate a cell.
//
// Errors are never cached or served across callers: a cell that fails —
// most importantly one aborted by its own job's Stop hook — must not
// poison the key for jobs that were not canceled. On error the entry is
// dropped; a waiter that observed another caller's error recomputes with
// its own compute function (honoring its own hooks).
//
// Capacity is enforced by LRU eviction: past cap entries, the least
// recently used settled entry is dropped. Eviction is result-neutral
// for the same reason memoization is — a dropped key simply recomputes
// on its next use. In-flight entries are never evicted (their waiters
// hold references), so residency can transiently exceed cap under heavy
// concurrent fan-in; it settles back under the bound as computes finish.
//
// Entries whose key family the installed Codec recognizes are
// serializable: Export renders them as versioned Entry records, Import
// replays such records (verified by the codec) into warm entries, and
// Keys digests the exportable residents — the building blocks of the
// daemon's warm boot from its job journal, of replaying a resumed or
// merged job's cells, and of the cluster's warm-peer exchange.
type Memo struct {
	mu        sync.Mutex
	cap       int
	codec     Codec
	hits      int64
	computes  int64
	evictions int64
	imports   int64
	entries   map[string]*memoEntry
	lru       *list.List // front = most recently used; values are *memoEntry
}

type memoEntry struct {
	once sync.Once
	val  any
	err  error

	// key and el tie the entry back to its map slot and LRU position;
	// settled is set (under Memo.mu) after once.Do completes, marking the
	// entry evictable and exportable.
	key     string
	el      *list.Element
	settled bool
}

// EntryVersion is the current Entry wire/disk format version. Import
// ignores entries from other versions — a mixed-version cluster degrades
// to recomputation, never to misdecoded values.
const EntryVersion = 1

// Entry is one serialized memo entry: a versioned (key, canonical JSON
// value) pair produced by Export and accepted by Import. The value
// encoding is the codec's (deterministic, round-trip verified), so two
// daemons exporting the same key emit identical bytes.
type Entry struct {
	V     int             `json:"v"`
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// Codec translates between a memo entry's in-memory value and its
// canonical serialized form. The memo itself is value-agnostic; only the
// experiment layer knows which key families exist and what Go type each
// holds, so it provides the codec (exp.MemoCodec). All methods must be
// safe for concurrent use and pure.
type Codec interface {
	// Exportable reports whether the key belongs to a serializable
	// family — a cheap prefix check, called while the memo lock is held.
	Exportable(key string) bool
	// Encode renders a value as canonical JSON; ok=false drops the entry
	// from exports (wrong dynamic type, value that does not round-trip).
	Encode(key string, val any) (json.RawMessage, bool)
	// Decode verifies and revives serialized bytes; ok=false rejects the
	// entry at import (schema drift, corruption) so the key recomputes.
	Decode(key string, raw json.RawMessage) (any, bool)
}

// NewMemo returns a memo bounded to cap entries; cap <= 0 means
// unbounded. Past cap, the least-recently-used settled entry is evicted
// (see the type comment for why that is result-neutral).
func NewMemo(cap int) *Memo {
	return &Memo{cap: cap, entries: make(map[string]*memoEntry), lru: list.New()}
}

// SetCodec installs the entry codec, enabling Export/Import/Keys. Safe
// to call repeatedly; the last codec wins.
func (m *Memo) SetCodec(c Codec) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.codec = c
	m.mu.Unlock()
}

// Do returns the memoized value for key, computing it with compute on
// first use. A nil *Memo computes directly — callers thread an optional
// memo without branching.
func (m *Memo) Do(key string, compute func() (any, error)) (any, error) {
	if m == nil {
		return compute()
	}
	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok {
		e = &memoEntry{key: key}
		m.entries[key] = e
		e.el = m.lru.PushFront(e)
		m.evictLocked()
	} else {
		m.hits++
		m.lru.MoveToFront(e.el)
	}
	m.mu.Unlock()

	mine := false
	e.once.Do(func() {
		mine = true
		e.val, e.err = compute()
	})
	if e.err == nil {
		if mine {
			m.mu.Lock()
			if m.entries[key] == e {
				e.settled = true
				m.computes++
				m.evictLocked()
			}
			m.mu.Unlock()
		}
		return e.val, nil
	}
	// Drop the failed entry so the key can be retried. Only the caller
	// whose compute produced the error reports it; waiters recompute so
	// another job's cancellation never leaks into their result.
	m.mu.Lock()
	if m.entries[key] == e {
		delete(m.entries, key)
		m.lru.Remove(e.el)
	}
	m.mu.Unlock()
	if mine {
		return nil, e.err
	}
	return compute()
}

// evictLocked drops settled entries from the LRU tail until residency is
// back within cap. In-flight entries are skipped — their waiters hold
// them — so residency can transiently exceed cap; the next settle or
// insert resumes evicting. Caller holds mu.
func (m *Memo) evictLocked() {
	if m.cap <= 0 {
		return
	}
	for el := m.lru.Back(); el != nil && len(m.entries) > m.cap; {
		prev := el.Prev()
		if e := el.Value.(*memoEntry); e.settled {
			delete(m.entries, e.key)
			m.lru.Remove(el)
			m.evictions++
		}
		el = prev
	}
}

// Keys returns the sorted keys of every settled, exportable resident
// entry — the memo's warm digest. Without a codec it returns nil.
func (m *Memo) Keys() []string {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.codec == nil {
		return nil
	}
	keys := make([]string, 0, len(m.entries))
	for k, e := range m.entries {
		if e.settled && m.codec.Exportable(k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Export serializes the named entries (nil keys = every exportable
// resident), sorted by key. Entries that are absent, in flight, or that
// the codec declines are silently skipped — exports are a warm-state
// snapshot, not a contract that every requested key exists.
func (m *Memo) Export(keys []string) []Entry {
	if m == nil {
		return nil
	}
	type pair struct {
		key string
		val any
	}
	m.mu.Lock()
	codec := m.codec
	if codec == nil {
		m.mu.Unlock()
		return nil
	}
	var pairs []pair
	if keys == nil {
		for k, e := range m.entries {
			if e.settled && codec.Exportable(k) {
				pairs = append(pairs, pair{k, e.val})
			}
		}
	} else {
		for _, k := range keys {
			if e, ok := m.entries[k]; ok && e.settled && codec.Exportable(k) {
				pairs = append(pairs, pair{k, e.val})
			}
		}
	}
	m.mu.Unlock()
	// Encode outside the lock: values are immutable once settled, and
	// encoding verifies a JSON round trip per entry.
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].key < pairs[j].key })
	out := make([]Entry, 0, len(pairs))
	for _, p := range pairs {
		if raw, ok := codec.Encode(p.key, p.val); ok {
			out = append(out, Entry{V: EntryVersion, Key: p.key, Value: raw})
		}
	}
	return out
}

// Import replays exported entries into warm, settled residents at the
// front of the LRU, returning how many were installed. Each entry is
// verified by the codec before it is trusted (strict decode, round-trip
// exact); entries from other format versions, unknown key families, or
// failing verification are skipped — a bad import degrades to
// recomputation. Keys already resident (settled or in flight) are left
// alone, and skipped before they are decoded: a local computation in
// progress beats a replay.
func (m *Memo) Import(entries []Entry) int {
	if m == nil || len(entries) == 0 {
		return 0
	}
	m.mu.Lock()
	codec := m.codec
	m.mu.Unlock()
	if codec == nil {
		return 0
	}
	installed := 0
	for _, ent := range entries {
		if ent.V != EntryVersion || !codec.Exportable(ent.Key) || m.resident(ent.Key) {
			continue
		}
		val, ok := codec.Decode(ent.Key, ent.Value)
		if !ok {
			continue
		}
		// Decoding ran unlocked, so check residency again: a compute or
		// another import may have claimed the key meanwhile.
		m.mu.Lock()
		if _, exists := m.entries[ent.Key]; !exists {
			e := &memoEntry{key: ent.Key, val: val, settled: true}
			e.once.Do(func() {}) // burn the once: Do must never recompute this entry
			m.entries[ent.Key] = e
			e.el = m.lru.PushFront(e)
			m.imports++
			installed++
			m.evictLocked()
		}
		m.mu.Unlock()
	}
	return installed
}

// resident reports whether key has an entry, settled or in flight.
func (m *Memo) resident(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.entries[key]
	return ok
}

// Len reports the number of resident entries (including in-flight ones).
func (m *Memo) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Hits reports how many Do calls were served by an existing entry.
func (m *Memo) Hits() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits
}

// Computes reports how many entries were settled by running their
// compute function — the cold-path counter warm-restart tests pin to
// zero.
func (m *Memo) Computes() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.computes
}

// Evictions reports how many settled entries the LRU bound dropped.
func (m *Memo) Evictions() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictions
}

// Imports reports how many entries Import installed.
func (m *Memo) Imports() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.imports
}
