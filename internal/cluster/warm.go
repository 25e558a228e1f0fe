package cluster

import (
	"context"
	"sync"
	"time"

	"greendimm/internal/server"
	"greendimm/internal/sweep"
)

// Warm is the cluster's view of which memo entries are hot where: a
// TTL-cached digest of every healthy backend's exportable memo keys
// (GET /v1/memo/keys), consumed two ways. Scorer turns a shard's
// predicted keys (server.PredictMemoKeys) into a placement score —
// warm-key overlap — that PickScored layers on top of least-outstanding
// routing, so repeated sweeps and resharded retries land where their
// baselines already are. Prefetch pulls entries this node is missing
// from the warmest peer (POST /v1/memo/entries) into the local memo
// before computing, so even a merge or local fallback runs warm.
//
// Everything here is an optimization, never an input to results: digests
// may be stale (a peer that evicted a key just recomputes the shard
// slower), predictions may be partial, and fetched entries pass the
// memo codec's byte-exact verification before they are trusted — the
// existing divergence fingerprinting would catch any violation.
type Warm struct {
	pool *Pool
	memo *sweep.Memo
	opts WarmOptions
	ctr  *Counters

	mu      sync.Mutex
	digests map[string]*warmDigest
	onFetch func(imported int)
	now     func() time.Time // test seam
}

// warmDigest is one backend's key set as of `at`.
type warmDigest struct {
	keys map[string]bool
	at   time.Time
}

// WarmOptions tunes the digest cache. Zero values take defaults.
type WarmOptions struct {
	// TTL bounds digest staleness (default 5s): within it, scoring and
	// prefetch reuse the cached key set instead of re-asking the peer.
	TTL time.Duration
	// Counters, when non-nil, receives warm-routing accounting.
	Counters *Counters
}

func (o WarmOptions) withDefaults() WarmOptions {
	if o.TTL <= 0 {
		o.TTL = 5 * time.Second
	}
	return o
}

// NewWarm builds the warm-memo view over pool's backends. memo is the
// local node's shared memo (the prefetch target; nil disables prefetch
// but scoring still works). A nil *Warm is a valid no-op everywhere.
func NewWarm(pool *Pool, memo *sweep.Memo, opts WarmOptions) *Warm {
	opts = opts.withDefaults()
	return &Warm{
		pool:    pool,
		memo:    memo,
		opts:    opts,
		ctr:     opts.Counters,
		digests: make(map[string]*warmDigest),
		now:     time.Now,
	}
}

// SetOnFetch installs a callback invoked with each prefetch's imported
// entry count — the seam cmd/greendimmd uses to feed the server's
// greendimm_memo_peer_fetch_total counter from the cluster layer.
func (w *Warm) SetOnFetch(fn func(imported int)) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.onFetch = fn
	w.mu.Unlock()
}

// digestFor returns the backend's key set, refreshing over HTTP when the
// cached copy is older than TTL. A failed refresh serves the stale copy
// if one exists and an empty set otherwise — a cold answer, not an error.
func (w *Warm) digestFor(ctx context.Context, b *backend) map[string]bool {
	w.mu.Lock()
	d := w.digests[b.url]
	now := w.now()
	w.mu.Unlock()
	if d != nil && now.Sub(d.at) < w.opts.TTL {
		return d.keys
	}
	keys, err := b.client.MemoKeys(ctx)
	if err != nil {
		if d != nil {
			return d.keys
		}
		return nil
	}
	set := make(map[string]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	w.mu.Lock()
	w.digests[b.url] = &warmDigest{keys: set, at: w.now()}
	w.mu.Unlock()
	return set
}

// Scorer returns a placement score function over backend URLs: how many
// of the predicted keys each healthy backend holds warm. Scores are
// precomputed here — the returned closure takes no locks, so PickScored
// can call it under the pool's mutex. It returns nil (meaning "no
// signal, use plain least-outstanding routing") when w is nil, there are
// no keys to match, or no backend reports any overlap.
func (w *Warm) Scorer(ctx context.Context, keys []string) func(url string) int {
	if w == nil || len(keys) == 0 {
		return nil
	}
	scores := make(map[string]int)
	any := false
	for _, b := range w.pool.healthyClients() {
		digest := w.digestFor(ctx, b)
		n := 0
		for _, k := range keys {
			if digest[k] {
				n++
			}
		}
		scores[b.url] = n
		if n > 0 {
			any = true
		}
	}
	if !any {
		return nil
	}
	if w.ctr != nil {
		w.ctr.WarmPicks.Add(1)
	}
	return func(url string) int { return scores[url] }
}

// Prefetch pulls the entries for keys that are missing from the local
// memo from the single warmest healthy peer, importing them (codec
// verified) and reporting how many landed. Best-effort on every edge:
// no memo, no missing keys, no warm peer, or a failed fetch all return
// 0 and cost at most one digest round.
func (w *Warm) Prefetch(ctx context.Context, keys []string) int {
	if w == nil || w.memo == nil || len(keys) == 0 {
		return 0
	}
	local := make(map[string]bool)
	for _, k := range w.memo.Keys() {
		local[k] = true
	}
	var missing []string
	for _, k := range keys {
		if !local[k] {
			missing = append(missing, k)
		}
	}
	if len(missing) == 0 {
		return 0
	}
	// One peer, the one holding the most of what we lack: entries are
	// identical wherever they live, so there is nothing to merge across
	// peers, and one batched fetch bounds the exchange cost.
	var bestB *backend
	var bestHeld []string
	for _, b := range w.pool.healthyClients() {
		digest := w.digestFor(ctx, b)
		var held []string
		for _, k := range missing {
			if digest[k] {
				held = append(held, k)
			}
		}
		if len(held) > len(bestHeld) {
			bestB, bestHeld = b, held
		}
	}
	if bestB == nil || len(bestHeld) == 0 {
		return 0
	}
	if len(bestHeld) > server.MaxMemoFetchKeys { // the peer's per-request bound
		bestHeld = bestHeld[:server.MaxMemoFetchKeys]
	}
	entries, err := bestB.client.MemoFetch(ctx, bestHeld)
	if err != nil {
		return 0
	}
	imported := w.memo.Import(entries)
	if imported > 0 {
		if w.ctr != nil {
			w.ctr.PeerMemoEntries.Add(int64(imported))
		}
		w.mu.Lock()
		onFetch := w.onFetch
		w.mu.Unlock()
		if onFetch != nil {
			onFetch(imported)
		}
	}
	return imported
}
