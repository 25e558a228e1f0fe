package cluster

import (
	"context"
	"sync"
	"time"
)

// PoolConfig tunes the backend scoreboard. Zero values take defaults.
type PoolConfig struct {
	// Client configures the per-backend clients.
	Client ClientConfig
	// FailThreshold is how many consecutive transport failures mark a
	// backend unhealthy (default 3). A single success — call or probe —
	// restores it.
	FailThreshold int
	// ProbePeriod is the /healthz probe interval once Start is called
	// (default 2s). Probing is optional: call results alone also move
	// the scoreboard, but only probes can revive a backend that stopped
	// being picked.
	ProbePeriod time.Duration
}

func (c PoolConfig) withDefaults() PoolConfig {
	c.Client = c.Client.withDefaults()
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbePeriod <= 0 {
		c.ProbePeriod = 2 * time.Second
	}
	return c
}

// backend is one scoreboard row. Mutable fields are guarded by Pool.mu.
type backend struct {
	url    string
	client *Client

	healthy     bool
	consecFails int
	outstanding int // leased jobs not yet released
	lastErr     error
}

// Pool tracks the health and load of a fixed set of greendimmd backends
// and leases work to the best one. All methods are safe for concurrent
// use.
type Pool struct {
	cfg PoolConfig

	mu       sync.Mutex
	backends []*backend

	stopOnce sync.Once
	stopc    chan struct{}
	wg       sync.WaitGroup
}

// NewPool builds a scoreboard over the given base URLs. Backends start
// healthy (optimistically): the first failed calls demote them, probes
// or successes promote them back.
func NewPool(urls []string, cfg PoolConfig) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{cfg: cfg, stopc: make(chan struct{})}
	for _, u := range urls {
		p.backends = append(p.backends, &backend{
			url:     u,
			client:  NewClient(u, cfg.Client),
			healthy: true,
		})
	}
	return p
}

// Start launches the periodic /healthz prober. Stop halts it.
func (p *Pool) Start() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(p.cfg.ProbePeriod)
		defer t.Stop()
		for {
			select {
			case <-p.stopc:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), p.cfg.ProbePeriod)
				p.ProbeAll(ctx)
				cancel()
			}
		}
	}()
}

// Stop halts the prober (if started) and waits for it to exit.
func (p *Pool) Stop() {
	p.stopOnce.Do(func() { close(p.stopc) })
	p.wg.Wait()
}

// ProbeAll probes every backend's /healthz once, concurrently, updating
// the scoreboard. It is the prober's body and a deterministic handle for
// tests and one-shot CLIs.
func (p *Pool) ProbeAll(ctx context.Context) {
	p.mu.Lock()
	backends := append([]*backend(nil), p.backends...)
	p.mu.Unlock()
	var wg sync.WaitGroup
	for _, b := range backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			p.report(b, b.client.Healthz(ctx))
		}(b)
	}
	wg.Wait()
}

// report scores one transport outcome: success resets the failure streak
// and revives the backend; failure increments it and demotes the backend
// at the threshold.
func (p *Pool) report(b *backend, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err == nil {
		b.consecFails = 0
		b.healthy = true
		b.lastErr = nil
		return
	}
	b.consecFails++
	b.lastErr = err
	if b.consecFails >= p.cfg.FailThreshold {
		b.healthy = false
	}
}

// Lease is one unit of routed work: it pins a backend, contributes to
// its outstanding-jobs count, and reports the outcome back to the
// scoreboard when released.
type Lease struct {
	pool *Pool
	b    *backend
	once sync.Once
}

// Client returns the leased backend's API client.
func (l *Lease) Client() *Client { return l.b.client }

// URL returns the leased backend's base URL.
func (l *Lease) URL() string { return l.b.url }

// Release ends the lease, scoring transportErr (nil = the backend held
// up its end, even if the job itself failed validation or execution).
// Safe to call more than once; only the first call counts.
func (l *Lease) Release(transportErr error) {
	l.once.Do(func() {
		l.pool.mu.Lock()
		l.b.outstanding--
		l.pool.mu.Unlock()
		l.pool.report(l.b, transportErr)
	})
}

// Pick leases the healthy backend with the fewest outstanding jobs,
// skipping URLs in exclude (nil = none). Ties break toward the earlier
// configured backend, keeping selection deterministic. It returns nil
// when no healthy backend remains — the dispatcher's cue to fall back to
// local execution.
func (p *Pool) Pick(exclude map[string]bool) *Lease {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best *backend
	for _, b := range p.backends {
		if !b.healthy || exclude[b.url] {
			continue
		}
		if best == nil || b.outstanding < best.outstanding {
			best = b
		}
	}
	if best == nil {
		return nil
	}
	best.outstanding++
	return &Lease{pool: p, b: best}
}

// BackendStatus is one scoreboard row snapshot.
type BackendStatus struct {
	URL         string `json:"url"`
	Healthy     bool   `json:"healthy"`
	ConsecFails int    `json:"consec_fails"`
	Outstanding int    `json:"outstanding"`
	LastErr     string `json:"last_err,omitempty"`
}

// Status snapshots every backend in configuration order.
func (p *Pool) Status() []BackendStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]BackendStatus, 0, len(p.backends))
	for _, b := range p.backends {
		st := BackendStatus{URL: b.url, Healthy: b.healthy, ConsecFails: b.consecFails, Outstanding: b.outstanding}
		if b.lastErr != nil {
			st.LastErr = b.lastErr.Error()
		}
		out = append(out, st)
	}
	return out
}

// Size returns the number of configured backends.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.backends)
}
