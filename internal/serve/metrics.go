package serve

import (
	"fmt"
	"net/http"
	"strings"

	"incore/internal/pipeline"
	"incore/internal/remotestore"
	"incore/internal/sweep"
	"incore/internal/uarch"
)

// GET /metrics renders the same accounting /healthz reports as JSON in
// the Prometheus text exposition format, so the serving tier drops into
// standard scrape-based monitoring without a sidecar translating the
// health document. The mapping is mechanical: every counter in the
// health document appears as an incore_* series; tiers that are not
// attached (store, remote) simply emit no series, mirroring the omitted
// JSON sections.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	gauge("incore_models", "Registered machine models.", int64(len(uarch.Keys())))

	cache := pipeline.Shared().Stats()
	counter("incore_cache_hits_total", "Memo cache hits.", cache.Hits)
	counter("incore_cache_misses_total", "Memo cache misses.", cache.Misses)
	gauge("incore_cache_entries", "Memo cache population.", int64(cache.Entries))

	comp := pipeline.CompiledArtifacts().Stats()
	gauge("incore_compiled_programs", "Cached simulator programs.", comp.Programs)
	gauge("incore_compiled_blocks", "Cached parsed blocks.", comp.Blocks)
	gauge("incore_compiled_skeletons", "Cached dependence skeletons.", comp.Skeletons)
	gauge("incore_compiled_descs", "Cached descriptor tables.", comp.Descs)
	gauge("incore_compiled_mca", "Cached mca schedules.", comp.MCA)
	counter("incore_compiled_compiles_total", "Artifact compilations.", comp.Compiles)
	counter("incore_compiled_hits_total", "Artifact cache hits.", comp.Hits)
	counter("incore_compiled_attaches_total", "Waiters attached to in-flight compilations.", comp.Attaches)
	gauge("incore_compiled_bytes_estimated", "Estimated retained artifact bytes.", comp.BytesEstimated)

	jobs := s.jobs.Stats()
	gauge("incore_jobs", "Retained job records.", int64(jobs.Jobs))
	gauge("incore_jobs_depth", "Job items awaiting a worker.", int64(jobs.Depth))
	gauge("incore_jobs_pending", "Jobs in state pending.", int64(jobs.Pending))
	gauge("incore_jobs_running", "Jobs in state running.", int64(jobs.Running))
	gauge("incore_jobs_completed", "Jobs in state completed.", int64(jobs.Completed))
	gauge("incore_jobs_cancelled", "Jobs in state cancelled.", int64(jobs.Cancelled))
	counter("incore_jobs_evicted_total", "Job records self-evicted on load.", jobs.Evicted)
	counter("incore_jobs_persist_errors_total", "Surrendered job checkpoints.", jobs.PersistErrors)
	counter("incore_jobs_persist_retried_total", "Retried job checkpoint writes.", jobs.PersistRetried)

	sw := sweep.GlobalStats()
	counter("incore_sweep_sweeps_total", "Completed sweep runs.", sw.Sweeps)
	counter("incore_sweep_variants_total", "Sweep variants generated.", sw.Variants)
	counter("incore_sweep_shared_signature_total", "Variants reusing another variant's port signature.", sw.SharedSignature)
	counter("incore_sweep_cells_warm_total", "Sweep result cells served from cache tiers.", sw.CellsWarm)
	counter("incore_sweep_cells_cold_total", "Sweep result cells that missed the memo and store under their variant's key.", sw.CellsCold)
	counter("incore_sweep_cells_analyzed_total", "Sweep cell analyses run (one per port signature and block content).", sw.CellsAnalyzed)
	counter("incore_sweep_rejected_too_large_total", "Sweeps refused by the variant cap.", sw.RejectedTooLarge)

	if st := pipeline.PersistentStore(); st != nil {
		ss := st.Stats()
		counter("incore_store_mem_hits_total", "Store in-memory tier hits.", ss.MemHits)
		counter("incore_store_disk_hits_total", "Store disk tier hits.", ss.DiskHits)
		counter("incore_store_remote_hits_total", "Store remote tier hits.", ss.RemoteHits)
		counter("incore_store_remote_rejects_total", "Remote payloads refused by validation.", ss.RemoteRejects)
		counter("incore_store_misses_total", "Store cold lookups.", ss.Misses)
		counter("incore_store_evictions_total", "Stale or damaged disk entries evicted.", ss.Evictions)
		counter("incore_store_put_errors_total", "Failed store writes.", ss.PutErrors)
		gauge("incore_store_mem_entries", "Store in-memory tier population.", int64(ss.MemEntries))
		if rc, ok := st.Remote().(*remotestore.Client); ok {
			rs := rc.Stats()
			counter("incore_remote_gets_total", "Remote peer lookups.", rs.Gets)
			counter("incore_remote_hits_total", "Remote peer hits.", rs.Hits)
			counter("incore_remote_misses_total", "Remote peer healthy misses.", rs.Misses)
			counter("incore_remote_errors_total", "Remote lookups that exhausted retries.", rs.Errors)
			counter("incore_remote_verify_failures_total", "Remote entries discarded by verification.", rs.VerifyFailures)
			counter("incore_remote_retries_total", "Extra remote GET attempts.", rs.Retries)
			counter("incore_remote_short_circuits_total", "Operations answered locally by the open breaker.", rs.ShortCircuits)
			counter("incore_remote_puts_total", "Write-behind successes.", rs.Puts)
			counter("incore_remote_put_errors_total", "Write-behind failures.", rs.PutErrors)
			counter("incore_remote_puts_dropped_total", "Write-behind entries dropped.", rs.PutsDropped)
			counter("incore_remote_breaker_trips_total", "Breaker transitions to open.", rs.BreakerTrips)
			fmt.Fprintf(&b, "# HELP incore_remote_breaker_state Circuit-breaker state (1 on the active state).\n# TYPE incore_remote_breaker_state gauge\n")
			for _, state := range []remotestore.BreakerState{remotestore.BreakerClosed, remotestore.BreakerOpen, remotestore.BreakerHalfOpen} {
				v := 0
				if rs.Breaker == state {
					v = 1
				}
				fmt.Fprintf(&b, "incore_remote_breaker_state{state=%q} %d\n", string(state), v)
			}
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String()))
}
