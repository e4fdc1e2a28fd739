package qserve

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// serverStats holds the serving counters and the latency histogram.
// Counters are atomics: the serve path must not take a lock just to
// count.
type serverStats struct {
	hits          atomic.Int64
	misses        atomic.Int64
	collapses     atomic.Int64
	sheds         atomic.Int64
	cancels       atomic.Int64
	errors        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	breakerTrips  atomic.Int64
	relaxed       atomic.Int64
	latency       obs.Histogram
}

// Snapshot is a point-in-time view of the serving counters, shaped for
// JSON (the /debug/qserve endpoint).
type Snapshot struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Collapses int64 `json:"collapses"`
	Sheds     int64 `json:"sheds"`
	Cancels   int64 `json:"cancels"`
	Errors    int64 `json:"errors"`
	Evictions int64 `json:"evictions"`

	// Invalidations counts cache invalidations (full or token-scoped;
	// one per acknowledged ingest batch on a live-index deployment).
	Invalidations int64 `json:"invalidations"`

	// Relaxed counts executed queries whose keywords were rewritten
	// (dropped/substituted) to be answerable; cache hits on relaxed
	// entries are not re-counted.
	Relaxed int64 `json:"relaxed"`

	CacheEntries int   `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`
	InFlight     int   `json:"in_flight"`
	Waiters      int64 `json:"waiters"`

	// BreakerOpen and BreakerTrips describe the admission breaker;
	// RetryAfterMillis is the current backoff hint shed clients receive.
	BreakerOpen      bool  `json:"breaker_open"`
	BreakerTrips     int64 `json:"breaker_trips"`
	RetryAfterMillis int64 `json:"retry_after_ms"`

	// IndexState and IndexErr surface the index backend's health (see
	// kwindex.HealthOf): a disk-backed reader fails softly — lookups
	// return empty results and the first failure parks in Err() — so
	// without this a corrupt index would be invisible here.
	IndexState string `json:"index_state,omitempty"`
	IndexErr   string `json:"index_err,omitempty"`

	// Shards lists the per-shard states when the engine is a
	// scatter-gather coordinator.
	Shards []ShardState `json:"shards,omitempty"`

	Served     int64         `json:"served"`
	MeanMicros int64         `json:"mean_us"`
	P50        time.Duration `json:"p50_ns"`
	P95        time.Duration `json:"p95_ns"`

	// Pipeline is the engine's cumulative per-stage breakdown, when the
	// engine exposes one (core.System does). Misses executed the
	// pipeline; hits were answered from the result cache — so
	// Pipeline.Queries tracks Misses, not Served, and the difference is
	// the work the cache absorbed.
	Pipeline *pipeline.Snapshot `json:"pipeline,omitempty"`
}

// pipelineSource is the optional engine interface Stats uses to embed
// the per-stage pipeline counters.
type pipelineSource interface {
	PipelineSnapshot() pipeline.Snapshot
}

// Stats returns a snapshot of the serving counters and latencies.
func (s *Server) Stats() Snapshot {
	snap := Snapshot{
		Hits:          s.stats.hits.Load(),
		Misses:        s.stats.misses.Load(),
		Collapses:     s.stats.collapses.Load(),
		Sheds:         s.stats.sheds.Load(),
		Cancels:       s.stats.cancels.Load(),
		Errors:        s.stats.errors.Load(),
		Evictions:     s.stats.evictions.Load(),
		Invalidations: s.stats.invalidations.Load(),
		Relaxed:       s.stats.relaxed.Load(),
		InFlight:      s.InFlight(),
		Waiters:       s.waiters.Load(),

		BreakerOpen:      s.breakerOpen(),
		BreakerTrips:     s.stats.breakerTrips.Load(),
		RetryAfterMillis: s.RetryAfter().Milliseconds(),

		Served: s.stats.latency.Count(),
		P50:    s.stats.latency.Quantile(0.50),
		P95:    s.stats.latency.Quantile(0.95),
	}
	if hs, ok := s.eng.(healthSource); ok {
		state, err := hs.IndexHealthState()
		snap.IndexState = string(state)
		if err != nil {
			snap.IndexErr = err.Error()
			s.noteIndexErr(err)
		}
	}
	if s.cache != nil {
		snap.CacheEntries, snap.CacheBytes = s.cache.Usage()
	}
	if snap.Served > 0 {
		snap.MeanMicros = int64(s.stats.latency.Sum()) / snap.Served / int64(time.Microsecond)
	}
	if src, ok := s.eng.(pipelineSource); ok {
		p := src.PipelineSnapshot()
		snap.Pipeline = &p
	}
	snap.Shards = s.ShardStates()
	return snap
}
