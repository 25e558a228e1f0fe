// Command greendimmd serves the simulator as a long-running HTTP daemon.
// Clients POST job specs (a paper experiment id or a §6.3 VM-consolidation
// scenario) to /v1/jobs; a bounded worker pool runs each job on its own
// deterministic engine, results are cached by spec hash, and /metrics
// exposes queue and cache health in Prometheus text format.
//
// Usage:
//
//	greendimmd -addr :8080 -workers 4 -queue 16
//	curl -d '{"kind":"experiment","experiment":{"id":"fig12"}}' localhost:8080/v1/jobs
//
// With -peers, a submission the bounded queue turns away runs on the
// healthy peer daemon with the fewest outstanding jobs (internal/cluster)
// instead of bouncing back as 429. It stays an ordinary job of this
// daemon: same id space, pollable, cancelable, cached and journaled here.
//
// With -store-dir, jobs are durable: accepted specs and their completed
// sweep cells journal to a write-ahead log, a killed daemon re-enqueues
// interrupted jobs at the next start, and they resume from the cells
// already done. With -shard-cells N (and -peers), matrix experiments fan
// out across the peers as cell-range shards of ~N sweep cells each,
// merged locally to the byte-identical single-node report.
//
// Baseline sweep cells memoize in a shared LRU (-memo entries). With
// -store-dir the daemon warms the memo at start from every cell its job
// journal retains, whichever spec journaled it, so a restarted daemon
// serves repeat and overlapping sweeps without recomputation. The memo
// is also how a resumed job replays its journaled cells and a sharded
// job its shards' cells: a job replays at most 45 keys (the Figs. 9-11
// energy matrix), so a memo smaller than that recomputes the overflow,
// slower but with the same bytes. A `greendimm -memo-dir` directory is
// a valid -store-dir, and a <dir>/memo/ subdirectory left by earlier
// builds is ignored. Shards place by load, on the peer with the fewest
// outstanding jobs; cells cross daemons only inside a shard's result,
// and a shard no peer completes runs here, against this memo.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"greendimm/internal/cluster"
	"greendimm/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation workers")
		queue      = flag.Int("queue", 16, "bounded job queue depth (full queue returns HTTP 429)")
		cacheSize  = flag.Int("cache", 128, "result cache entries (keyed by job-spec hash)")
		defTimeout = flag.Duration("timeout", 15*time.Minute, "default per-job deadline")
		maxTimeout = flag.Duration("max-timeout", 2*time.Hour, "ceiling on client-requested deadlines")
		grace      = flag.Duration("grace", 2*time.Minute, "drain window for in-flight jobs on shutdown")
		maxRecords = flag.Int("max-records", 4096, "finished job records to retain")
		cpuBudget  = flag.Int("cpu-budget", runtime.GOMAXPROCS(0), "goroutine budget shared by workers and per-job sweep parallelism")
		peers      = flag.String("peers", "", "comma-separated peer greendimmd base URLs; a submission the full queue turns away runs on a healthy peer instead of returning 429")
		peerProbe  = flag.Duration("peer-probe", 2*time.Second, "peer /healthz probe period (with -peers)")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty disables profiling")
		storeDir   = flag.String("store-dir", "", "durable job store directory: accepted jobs and their completed sweep cells are journaled, jobs interrupted by a crash resume from completed work at the next start; empty keeps the daemon in-memory")
		shardCells = flag.Int("shard-cells", 0, "fan matrix experiments out across -peers as cell-range shards of about this many sweep cells each (0 disables; requires -peers)")
		policyFile = flag.String("policy-config", "", "JSON policy config file; its block-selection pipeline becomes the default for vmserver jobs that omit a policy (see GET /v1/policies)")
		memoSize   = flag.Int("memo", 0, "baseline-cell memo entries shared across jobs (0 = default 512); resumed and sharded jobs replay their completed cells through it, at most 45 per job, so a smaller memo recomputes the overflow (slower, same bytes); with -store-dir the memo is warmed at start from the cells the job journal retains")
	)
	flag.Parse()
	if *memoSize < 0 {
		fmt.Fprintln(os.Stderr, "-memo must be >= 0")
		os.Exit(2)
	}

	cfg := server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheSize,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		MaxJobRecords:  *maxRecords,
		CPUBudget:      *cpuBudget,
		StoreDir:       *storeDir,
		MemoEntries:    *memoSize,
	}
	// One memo instance shared by the server and the shard runner's
	// executor: build it here so both see the same entries (and the boot
	// import from the -store-dir journal warms both).
	cfg.Memo = cfg.NewMemo()
	if *policyFile != "" {
		pc, err := server.LoadPolicyConfig(*policyFile)
		if err != nil {
			log.Fatalf("-policy-config: %v", err)
		}
		if pc.Scenario != nil {
			log.Fatalf("-policy-config: the scenario section is for the one-shot greendimm CLI; the daemon takes only the policy")
		}
		cfg.DefaultPolicy = &pc.Policy
		log.Printf("default block-selection policy: %s", pc.Policy.Fingerprint())
	}

	// Under -peers, one pool, one dispatcher and one counter set serve
	// both queue overflow and -shard-cells. They are built before the
	// server so their hooks go into its config.
	if *peers != "" {
		var urls []string
		for _, u := range strings.Split(*peers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		ctr := &cluster.Counters{}
		pool := cluster.NewPool(urls, cluster.PoolConfig{ProbePeriod: *peerProbe, Client: cluster.ClientConfig{Counters: ctr}})
		pool.Start()
		defer pool.Stop()
		d := cluster.NewDispatcher(pool, cluster.Options{Counters: ctr})
		cfg.Overflow = d.Overflow
		log.Printf("placing queue overflow on %d peers", len(urls))
		if *shardCells > 0 {
			// Shards dispatch through the failover ladder; whole jobs, the
			// shard merge and any shard no peer completes run through the
			// config's own runner (shared limiter + memo), so local work
			// stays inside one CPU budget.
			sr, err := cluster.NewShardRunner(d, cluster.ShardOptions{
				CellsPerShard: *shardCells,
				Exec:          cfg.BaseRunner(),
			})
			if err != nil {
				log.Fatalf("shard runner: %v", err)
			}
			cfg.Runner = sr.Run
			log.Printf("sharding matrix experiments across %d peers (%d cells per shard)", len(urls), *shardCells)
		}
	} else if *shardCells > 0 {
		log.Printf("-shard-cells %d ignored: no -peers to shard across", *shardCells)
	}

	srv, err := server.Open(cfg)
	if err != nil {
		log.Fatalf("starting server: %v", err)
	}
	if n := srv.MemoImported(); n > 0 {
		log.Printf("memo: booted warm with %d journaled cells", n)
	}
	if *storeDir != "" {
		log.Printf("durable job store at %s", *storeDir)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Profiling gets its own listener and mux, never the API one: the
	// handlers are registered explicitly (no DefaultServeMux side
	// effects), the API port stays free of debug endpoints, and the
	// operator can bind profiling to localhost while the API is public.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Addr: *pprofAddr, Handler: pm}
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("greendimmd listening on %s (%d workers, queue %d, cache %d)",
			*addr, *workers, *queue, *cacheSize)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	log.Printf("shutting down: draining in-flight jobs (grace %s)", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Stop accepting HTTP traffic first, then drain the worker pool.
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if pprofSrv != nil {
		if err := pprofSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("pprof shutdown: %v", err)
		}
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			log.Printf("drain window expired; canceled remaining jobs")
		} else {
			log.Printf("pool shutdown: %v", err)
		}
		os.Exit(1)
	}
	log.Printf("all jobs drained; bye")
}
