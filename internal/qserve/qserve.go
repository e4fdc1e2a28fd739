// Package qserve is the query-serving layer in front of the XKeyword
// engine: the piece a production deployment needs between HTTP handlers
// and the §4–§6 pipeline (CN generation, planning, join execution),
// which the paper re-runs from scratch on every query. It provides
//
//   - a sharded LRU result cache with TTL and byte-budget eviction,
//     keyed on the normalized keyword bag plus the result-shaping
//     parameters, so "Codd relational" and "Relational CODD" share an
//     entry;
//   - singleflight collapse: N concurrent identical queries run the
//     pipeline once and share the result;
//   - admission control: a bounded semaphore with a queue-wait deadline
//     that sheds load with ErrOverloaded instead of piling up
//     goroutines;
//   - end-to-end context cancellation: a disconnected client stops the
//     in-flight join loops (via exec's cooperative checks), and an
//     abandoned collapsed flight is cancelled when its last waiter
//     leaves;
//   - a Stats snapshot with hit/miss/collapse/shed/eviction counters
//     and p50/p95 serve latency from a fixed-bucket histogram.
//
// Everything is standard library only, like the rest of the repo.
package qserve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/pipeline"
	"repro/internal/rank"
)

// ErrOverloaded is returned when admission control sheds a query: every
// execution slot stayed busy for the whole queue-wait deadline. Callers
// should map it to a retryable status (HTTP 503).
var ErrOverloaded = errors.New("qserve: overloaded: no execution slot within queue-wait deadline")

// Engine is the query pipeline qserve fronts. *core.System implements
// it; tests substitute slow or blocking fakes.
type Engine interface {
	QueryContext(ctx context.Context, keywords []string, k int) ([]exec.Result, error)
	QueryAllStrategyContext(ctx context.Context, keywords []string, strat exec.Strategy) ([]exec.Result, error)
}

// ScoredEngine is the extended engine surface: pluggable result scorers
// and no-match relaxation. *core.System and the shard coordinator
// implement it; QueryScored routes through it whenever the wrapped
// engine does (even for the default scorer, so relaxation records
// flow), and plain Engines keep working for the default scorer only.
type ScoredEngine interface {
	Engine
	QueryScoredContext(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *pipeline.Relaxation, error)
}

// Annotations are the loud qualifications of an answer: non-nil
// Degraded when it was computed without part of the index (a dead
// shard), non-nil Relaxed when the query was rewritten to be
// answerable. Degraded answers are never cached; relaxed answers are
// (relaxation is a deterministic function of the index), and the cache
// returns the record with every hit.
type Annotations struct {
	Degraded *Degradation         `json:"degraded,omitempty"`
	Relaxed  *pipeline.Relaxation `json:"relaxed,omitempty"`
}

// degradation unwraps the degradation note of possibly-nil annotations.
func (a *Annotations) degradation() *Degradation {
	if a == nil {
		return nil
	}
	return a.Degraded
}

// Options configure a Server. The zero value selects the defaults.
type Options struct {
	// MaxEntries bounds the total cached queries (default 4096).
	// Negative disables the result cache entirely.
	MaxEntries int
	// MaxBytes bounds the approximate result bytes held by the cache
	// (default 64 MiB).
	MaxBytes int64
	// TTL is the entry lifetime (default 5 minutes). Negative means no
	// expiry.
	TTL time.Duration
	// MaxConcurrent bounds in-flight pipeline executions (default
	// 2×GOMAXPROCS).
	MaxConcurrent int
	// QueueWait is how long an admission waits for a slot before the
	// query is shed with ErrOverloaded (default 100ms).
	QueueWait time.Duration
	// BreakerWindow is the initial fast-fail window opened after a shed:
	// while it is open, admissions that would have to queue are rejected
	// immediately instead of burning the full queue wait first. Default
	// QueueWait; negative disables the breaker.
	BreakerWindow time.Duration
	// BreakerMax caps the exponential growth of consecutive fast-fail
	// windows (default 5s).
	BreakerMax time.Duration
	// Logf receives the serving layer's rare operational messages (first
	// index failure, degradation). Default log.Printf.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.MaxEntries == 0 {
		o.MaxEntries = 4096
	}
	if o.MaxBytes == 0 {
		o.MaxBytes = 64 << 20
	}
	if o.TTL == 0 {
		o.TTL = 5 * time.Minute
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if o.QueueWait == 0 {
		o.QueueWait = 100 * time.Millisecond
	}
	if o.BreakerWindow == 0 {
		o.BreakerWindow = o.QueueWait
	}
	if o.BreakerMax == 0 {
		o.BreakerMax = 5 * time.Second
	}
}

// Server serves keyword queries through the cache, the singleflight
// group and the admission semaphore. Safe for concurrent use.
type Server struct {
	eng   Engine
	opts  Options
	cache *ResultCache // nil when caching is disabled
	group flightGroup
	sem   chan struct{}
	stats serverStats
	breakerState
}

// New wraps an engine (usually a *core.System) in a serving layer.
func New(eng Engine, opts Options) *Server {
	opts.defaults()
	s := &Server{
		eng:  eng,
		opts: opts,
		sem:  make(chan struct{}, opts.MaxConcurrent),
	}
	if opts.MaxEntries > 0 {
		s.cache = NewResultCache(0, opts.MaxEntries, opts.MaxBytes, opts.TTL)
	}
	return s
}

// Engine returns the wrapped engine, so surfaces in front of the
// serving layer (the web demo's /debug/shard) can reach engine-specific
// debug state the Server does not model.
func (s *Server) Engine() Engine { return s.eng }

// Query answers the top-k query through the serving layer.
func (s *Server) Query(ctx context.Context, keywords []string, k int) ([]exec.Result, error) {
	rs, _, err := s.QueryAnnotated(ctx, keywords, k)
	return rs, err
}

// QueryAnnotated is Query returning the engine's degradation note
// alongside the results: non-nil when the answer was computed without
// part of the index (a dead shard's partition). Degraded answers are
// never cached, so a cache hit is always complete (nil note).
func (s *Server) QueryAnnotated(ctx context.Context, keywords []string, k int) ([]exec.Result, *Degradation, error) {
	rs, ann, err := s.QueryScored(ctx, keywords, k, "")
	return rs, ann.degradation(), err
}

// QueryScored answers the top-k query ranked by the named scorer (""
// selects the engine's default) with the full annotations. Engines
// implementing ScoredEngine serve every scorer and report relaxation;
// a plain Engine serves the default scorer only.
func (s *Server) QueryScored(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *Annotations, error) {
	if se, ok := s.eng.(ScoredEngine); ok {
		return s.serve(ctx, "topk", keywords, k, exec.NestedLoop, scorer, func(fctx context.Context) ([]exec.Result, *pipeline.Relaxation, error) {
			return se.QueryScoredContext(fctx, keywords, k, scorer)
		})
	}
	if scorer != "" && scorer != rank.DefaultName {
		return nil, nil, fmt.Errorf("qserve: engine %T does not support scorer selection (want %q)", s.eng, scorer)
	}
	return s.serve(ctx, "topk", keywords, k, exec.NestedLoop, scorer, func(fctx context.Context) ([]exec.Result, *pipeline.Relaxation, error) {
		rs, err := s.eng.QueryContext(fctx, keywords, k)
		return rs, nil, err
	})
}

// QueryAll answers the full-result query through the serving layer,
// using the engine's automatic strategy.
func (s *Server) QueryAll(ctx context.Context, keywords []string) ([]exec.Result, error) {
	return s.QueryAllStrategy(ctx, keywords, exec.AutoStrategy)
}

// QueryAllStrategy is QueryAll with an explicit evaluation strategy.
func (s *Server) QueryAllStrategy(ctx context.Context, keywords []string, strat exec.Strategy) ([]exec.Result, error) {
	rs, _, err := s.QueryAllAnnotated(ctx, keywords, strat)
	return rs, err
}

// QueryAllAnnotated is QueryAllStrategy returning the degradation note.
func (s *Server) QueryAllAnnotated(ctx context.Context, keywords []string, strat exec.Strategy) ([]exec.Result, *Degradation, error) {
	rs, ann, err := s.serve(ctx, "all", keywords, 0, strat, "", func(fctx context.Context) ([]exec.Result, *pipeline.Relaxation, error) {
		rs, err := s.eng.QueryAllStrategyContext(fctx, keywords, strat)
		return rs, nil, err
	})
	return rs, ann.degradation(), err
}

// InvalidateCache drops every cached result. The ingest path calls it
// after a write batch whose token footprint it cannot name (deletes: the
// dead TO's tokens are not in the request): the index has changed, so
// any cached answer may be stale. A no-op when caching is disabled.
func (s *Server) InvalidateCache() {
	if s.cache == nil {
		return
	}
	s.cache.Clear()
	s.stats.invalidations.Add(1)
}

// InvalidateCacheTokens drops only the cached queries whose normalized
// keyword bag intersects tokens — the scoped form of InvalidateCache for
// ingests whose token footprint is known (upserts carry their content).
// A query mentioning none of the ingested tokens cannot see the new
// document in any result, so its cached answer is still exact.
//
// Note the scope is by token, not by shard: a shard owns a hash slice of
// target objects, but one cached result is a *tree* of TOs that can span
// every shard, so "invalidate the ingesting shard's routed keys" is not
// a sound scope — any cached key could be affected. Tokens are the
// finest sound scope the cache key supports.
//
// An empty token list invalidates nothing (an empty upsert batch touched
// no index entry).
func (s *Server) InvalidateCacheTokens(tokens []string) {
	if s.cache == nil || len(tokens) == 0 {
		return
	}
	set := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		set[t] = true
	}
	if s.cache.c.DeleteFunc(func(key string) bool { return keyMentionsToken(key, set) }) > 0 {
		s.stats.invalidations.Add(1)
	}
}

// serve is the common path: normalize the key, consult the cache, and
// collapse concurrent misses into one admitted pipeline execution. The
// degradation slot is installed here — inside the flight — because the
// flight runs on the serving layer's detached context: a slot installed
// by the HTTP handler would never reach a collapsed execution.
func (s *Server) serve(ctx context.Context, kind string, keywords []string, k int, strat exec.Strategy, scorer string, run func(context.Context) ([]exec.Result, *pipeline.Relaxation, error)) ([]exec.Result, *Annotations, error) {
	start := time.Now()
	key, err := cacheKey(kind, keywords, k, strat, scorer)
	if err != nil {
		return nil, nil, err
	}
	if s.cache != nil {
		if rs, meta, ok := s.cache.Get(key); ok {
			s.stats.hits.Add(1)
			s.stats.latency.Observe(time.Since(start))
			var ann *Annotations
			if rx, _ := meta.(*pipeline.Relaxation); rx != nil {
				// The hit is a relaxed answer: the record cached with it
				// keeps the annotation as loud as the original miss.
				ann = &Annotations{Relaxed: rx}
			}
			return rs, ann, nil
		}
	}
	rs, ann, joined, err := s.group.do(ctx, key, func(fctx context.Context) ([]exec.Result, *Annotations, error) {
		if err := s.admit(fctx); err != nil {
			return nil, nil, err
		}
		defer s.release()
		fctx, slot := withDegradationSlot(fctx)
		rs, rx, err := run(fctx)
		if err != nil {
			return nil, nil, err
		}
		deg := slot.take()
		if deg != nil {
			// A degraded answer reflects the shard outage, not the index:
			// caching it would keep serving the partial answer after the
			// shard recovers. (A relaxed answer, by contrast, is exactly
			// what the index says for the rewritten query — cacheable,
			// with its record stored alongside.)
			s.stats.degraded.Add(1)
		} else if s.cache != nil {
			var meta any
			if rx != nil {
				meta = rx
			}
			s.stats.evictions.Add(s.cache.Put(key, rs, meta))
		}
		if rx != nil {
			s.stats.relaxed.Add(1)
		}
		if deg == nil && rx == nil {
			return rs, nil, nil
		}
		return rs, &Annotations{Degraded: deg, Relaxed: rx}, nil
	})
	switch {
	case err == nil:
		s.stats.misses.Add(1)
		if joined {
			s.stats.collapses.Add(1)
		}
		s.stats.latency.Observe(time.Since(start))
	case errors.Is(err, ErrOverloaded):
		s.stats.sheds.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.stats.cancels.Add(1)
	default:
		s.stats.errors.Add(1)
	}
	return rs, ann, err
}

// admit acquires an execution slot, waiting at most QueueWait. It
// returns ErrOverloaded when every slot stays busy for the whole wait,
// or ctx's error if the caller goes away while queued. While the
// breaker's fast-fail window (opened by a previous shed) is running,
// admissions that would have to queue are rejected without waiting.
func (s *Server) admit(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		s.closeBreaker()
		return nil
	default:
	}
	if s.opts.BreakerWindow > 0 && s.breakerOpen() {
		return ErrOverloaded
	}
	s.waiters.Add(1)
	defer s.waiters.Add(-1)
	timer := time.NewTimer(s.opts.QueueWait)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		s.closeBreaker()
		return nil
	case <-timer.C:
		if s.opts.BreakerWindow > 0 {
			s.tripBreaker()
		}
		return ErrOverloaded
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// InFlight reports the currently admitted pipeline executions.
func (s *Server) InFlight() int { return len(s.sem) }
