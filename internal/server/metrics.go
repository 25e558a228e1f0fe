package server

import "greendimm/internal/metrics"

// renderMetrics produces the /metrics payload in Prometheus text format.
func (s *Server) renderMetrics() string {
	st := s.snapshot()
	var e metrics.Exposition
	e.Add("greendimm_up", "gauge", "1 while the daemon accepts jobs, 0 once draining.",
		metrics.V(boolGauge(!st.draining)))
	e.Add("greendimm_queue_depth", "gauge", "Jobs waiting in the bounded queue.",
		metrics.V(float64(st.queueDepth)))
	e.Add("greendimm_queue_capacity", "gauge", "Queue bound; submissions beyond it get HTTP 429.",
		metrics.V(float64(st.queueCap)))
	e.Add("greendimm_workers", "gauge", "Size of the worker pool.",
		metrics.V(float64(st.workers)))
	e.Add("greendimm_workers_busy", "gauge", "Workers currently executing a job (utilization = busy/workers).",
		metrics.V(float64(st.busyWorkers)))
	e.Add("greendimm_jobs", "gauge", "Retained job records by lifecycle state.",
		stateSample(st, StateQueued),
		stateSample(st, StateRunning),
		stateSample(st, StateSucceeded),
		stateSample(st, StateFailed),
		stateSample(st, StateCanceled),
	)
	e.Add("greendimm_jobs_submitted_total", "counter", "Accepted submissions (including cache hits).",
		metrics.V(float64(st.submitted)))
	e.Add("greendimm_jobs_rejected_total", "counter", "Rejected submissions by reason.",
		metrics.Sample{Labels: map[string]string{"reason": "queue_full"}, Value: float64(st.rejectedFull)},
		metrics.Sample{Labels: map[string]string{"reason": "invalid"}, Value: float64(st.rejectedInvalid)},
		metrics.Sample{Labels: map[string]string{"reason": "draining"}, Value: float64(st.rejectedDraining)},
	)
	e.Add("greendimm_jobs_finished_total", "counter", "Finished executions by terminal state (cache hits excluded).",
		metrics.Sample{Labels: map[string]string{"state": string(StateSucceeded)}, Value: float64(st.succeeded)},
		metrics.Sample{Labels: map[string]string{"state": string(StateFailed)}, Value: float64(st.failed)},
		metrics.Sample{Labels: map[string]string{"state": string(StateCanceled)}, Value: float64(st.canceled)},
	)
	e.Add("greendimm_cache_hits_total", "counter", "Submissions served from the result cache without re-running the engine.",
		metrics.V(float64(st.cacheHits)))
	e.Add("greendimm_cache_misses_total", "counter", "Submissions that had to execute.",
		metrics.V(float64(st.cacheMisses)))
	e.Add("greendimm_cache_entries", "gauge", "Results currently cached.",
		metrics.V(float64(st.cacheSize)))
	e.Add("greendimm_job_sim_seconds_sum", "counter", "Total simulated seconds advanced by succeeded jobs.",
		metrics.V(st.simSecondsSum))
	e.Add("greendimm_cells_running_done", "gauge", "Sweep cells completed so far across currently running jobs.",
		metrics.V(float64(st.cellsDoneRunning)))
	e.Add("greendimm_cells_running_total", "gauge", "Sweep cells planned across currently running jobs.",
		metrics.V(float64(st.cellsTotalRunning)))
	e.Add("greendimm_jobs_recovered_total", "counter", "Jobs re-enqueued from the durable store at boot.",
		metrics.V(float64(st.recovered)))
	e.Add("greendimm_cells_resumed_total", "counter", "Journaled sweep cells replayed instead of re-simulated (succeeded jobs).",
		metrics.V(float64(st.resumedCells)))
	e.Add("greendimm_memo_entries", "gauge", "Baseline-cell memo entries currently resident.",
		metrics.V(float64(st.memoEntries)))
	e.Add("greendimm_memo_hits_total", "counter", "Memoized cell lookups served without recomputing.",
		metrics.V(float64(st.memoHits)))
	e.Add("greendimm_memo_computes_total", "counter", "Memo entries settled by running their compute function.",
		metrics.V(float64(st.memoComputes)))
	e.Add("greendimm_memo_evictions_total", "counter", "Settled memo entries dropped by the LRU bound.",
		metrics.V(float64(st.memoEvictions)))
	e.Add("greendimm_memo_imports_total", "counter", "Memo entries installed by import: journaled cells at boot, a resumed or merged job's replayed cells, and peer fetches.",
		metrics.V(float64(st.memoImports)))
	e.Add("greendimm_memo_peer_fetch_total", "counter", "Memo entries pulled from warm cluster peers.",
		metrics.V(float64(st.memoPeerFetch)))
	if st.store != nil {
		e.Add("greendimm_store_specs", "gauge", "Job records retained in the durable store.",
			metrics.V(float64(st.store.Specs)))
		e.Add("greendimm_store_cells", "gauge", "Cell artifacts retained in the durable store.",
			metrics.V(float64(st.store.Cells)))
		e.Add("greendimm_store_wal_records_total", "counter", "WAL records appended by this process.",
			metrics.V(float64(st.store.Appends)))
		e.Add("greendimm_store_snapshots_total", "counter", "WAL compactions into a snapshot.",
			metrics.V(float64(st.store.Snapshots)))
		e.Add("greendimm_store_errors_total", "counter", "Failed journal writes (jobs lose durability, not correctness).",
			metrics.V(float64(st.storeErrs)))
	}
	e.AddHistogram("greendimm_job_wall_seconds", "Wall-clock execution time per job (all outcomes, cache hits excluded).",
		s.histWall)
	e.AddHistogram("greendimm_job_queue_wait_seconds", "Time from submission to execution start.",
		s.histQueue)
	e.AddHistogram("greendimm_job_cell_seconds", "Wall-clock time per sweep cell.",
		s.histCell)
	return e.String()
}

func stateSample(st stats, state JobState) metrics.Sample {
	return metrics.Sample{Labels: map[string]string{"state": string(state)}, Value: float64(st.byState[state])}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
