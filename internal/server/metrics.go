package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"fastsc/internal/faultpoint"
)

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (text/plain version 0.0.4), without depending on a client
// library. Cache counters are the process-wide totals since start (or
// since snapshot restore for entry counts); per-request attribution is
// carried in each batch's done line instead.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	writeHelp := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	stats := s.base.Cache.StatsByRegion()
	regions := make([]string, 0, len(stats))
	for region := range stats {
		regions = append(regions, region)
	}
	sort.Strings(regions)

	writeHelp("fastscd_cache_hits_total", "Memoized lookups served from the compile cache, by region.", "counter")
	for _, region := range regions {
		fmt.Fprintf(&b, "fastscd_cache_hits_total{region=%q} %d\n", region, stats[region].Hits)
	}
	writeHelp("fastscd_cache_misses_total", "Memoized lookups that ran their compute function, by region.", "counter")
	for _, region := range regions {
		fmt.Fprintf(&b, "fastscd_cache_misses_total{region=%q} %d\n", region, stats[region].Misses)
	}
	writeHelp("fastscd_cache_evictions_total", "Cache entries evicted under capacity pressure, by region.", "counter")
	for _, region := range regions {
		fmt.Fprintf(&b, "fastscd_cache_evictions_total{region=%q} %d\n", region, stats[region].Evictions)
	}
	writeHelp("fastscd_cache_entries", "Entries currently resident in the compile cache.", "gauge")
	fmt.Fprintf(&b, "fastscd_cache_entries %d\n", s.base.Cache.Len())
	writeHelp("fastscd_snapshot_restored_entries", "Cache entries restored from the warm-start snapshot at boot.", "gauge")
	fmt.Fprintf(&b, "fastscd_snapshot_restored_entries %d\n", s.snapshot.Restored)
	if reason := s.snapshot.Degraded; reason != "" {
		writeHelp("fastscd_snapshot_degraded_total", "Snapshot loads that degraded to a cold start, by reason.", "counter")
		fmt.Fprintf(&b, "fastscd_snapshot_degraded_total{reason=%q} 1\n", reason)
	}

	writeHelp("fastscd_requests_total", "HTTP requests accepted for decoding, by endpoint.", "counter")
	fmt.Fprintf(&b, "fastscd_requests_total{endpoint=\"compile\"} %d\n", s.mStreams.Load())
	fmt.Fprintf(&b, "fastscd_requests_total{endpoint=\"submit\"} %d\n", s.mSubmits.Load())
	fmt.Fprintf(&b, "fastscd_requests_total{endpoint=\"poll\"} %d\n", s.mPolls.Load())

	writeHelp("fastscd_batches_rejected_total", "Batches refused admission, by reason.", "counter")
	fmt.Fprintf(&b, "fastscd_batches_rejected_total{reason=\"queue_full\"} %d\n", s.mRejectQueue.Load())
	fmt.Fprintf(&b, "fastscd_batches_rejected_total{reason=\"draining\"} %d\n", s.mRejectDrain.Load())

	writeHelp("fastscd_batches_admitted", "Batches admitted and not yet finished (running + queued).", "gauge")
	fmt.Fprintf(&b, "fastscd_batches_admitted %d\n", s.admitted.Load())
	writeHelp("fastscd_batches_running", "Batches currently holding a compile slot.", "gauge")
	fmt.Fprintf(&b, "fastscd_batches_running %d\n", s.running.Load())
	writeHelp("fastscd_queue_depth", "Batches waiting in the admission queue for a compile slot.", "gauge")
	fmt.Fprintf(&b, "fastscd_queue_depth %d\n", s.adm.depth())
	writeHelp("fastscd_batches_done_total", "Batches that ran to completion.", "counter")
	fmt.Fprintf(&b, "fastscd_batches_done_total %d\n", s.mBatchesDone.Load())
	writeHelp("fastscd_batches_shed_total", "Queued batches evicted to make room for higher-priority work.", "counter")
	fmt.Fprintf(&b, "fastscd_batches_shed_total %d\n", s.mShed.Load())
	writeHelp("fastscd_batches_expired_total", "Batches whose deadline passed before or during execution.", "counter")
	fmt.Fprintf(&b, "fastscd_batches_expired_total %d\n", s.mExpired.Load())
	writeHelp("fastscd_jobs_total", "Compile jobs finished, successful or not.", "counter")
	fmt.Fprintf(&b, "fastscd_jobs_total %d\n", s.mJobs.Load())
	writeHelp("fastscd_jobs_failed_total", "Compile jobs that finished with an error.", "counter")
	fmt.Fprintf(&b, "fastscd_jobs_failed_total %d\n", s.mJobsFailed.Load())
	writeHelp("fastscd_job_panics_total", "Compile jobs that panicked and were recovered per job.", "counter")
	fmt.Fprintf(&b, "fastscd_job_panics_total %d\n", s.mJobPanics.Load())

	s.hBatchSeconds.writeTo(&b, "fastscd_batch_duration_seconds",
		"Wall time of finished batches, admission wait included.")
	s.hWaitSeconds.writeTo(&b, "fastscd_admission_wait_seconds",
		"Time batches spent waiting for a compile slot.")

	writeHelp("fastscd_stored_batches", "Async batches retained for polling.", "gauge")
	fmt.Fprintf(&b, "fastscd_stored_batches %d\n", s.store.len())
	writeHelp("fastscd_store_epoch", "Batch-store generation: 1 fresh, incremented by every recovery.", "gauge")
	fmt.Fprintf(&b, "fastscd_store_epoch %d\n", s.store.Epoch())
	restored, interrupted, saveErrs := s.store.RecoveryStats()
	writeHelp("fastscd_store_restored_batches", "Batch records restored from the durable store at boot.", "gauge")
	fmt.Fprintf(&b, "fastscd_store_restored_batches %d\n", restored)
	writeHelp("fastscd_store_interrupted_batches", "Restored batches that were in flight when the previous process died.", "gauge")
	fmt.Fprintf(&b, "fastscd_store_interrupted_batches %d\n", interrupted)
	writeHelp("fastscd_store_save_errors_total", "Batch-store persists that failed (store kept serving from memory).", "counter")
	fmt.Fprintf(&b, "fastscd_store_save_errors_total %d\n", saveErrs)

	if fired := faultpoint.FiredAll(); len(fired) > 0 {
		names := make([]string, 0, len(fired))
		for name := range fired {
			names = append(names, name)
		}
		sort.Strings(names)
		writeHelp("fastscd_faultpoints_fired_total", "Armed fault-point firings, by point name.", "counter")
		for _, name := range names {
			fmt.Fprintf(&b, "fastscd_faultpoints_fired_total{point=%q} %d\n", name, fired[name])
		}
	}
	writeHelp("fastscd_draining", "1 while the server refuses new submissions ahead of shutdown.", "gauge")
	draining := 0
	if s.Draining() {
		draining = 1
	}
	fmt.Fprintf(&b, "fastscd_draining %d\n", draining)
	writeHelp("fastscd_uptime_seconds", "Seconds since the server was created.", "gauge")
	fmt.Fprintf(&b, "fastscd_uptime_seconds %.0f\n", time.Since(s.started).Seconds())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
