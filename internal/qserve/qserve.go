// Package qserve is the query-serving layer in front of the XKeyword
// engine: the piece a production deployment needs between HTTP handlers
// and the §4–§6 pipeline (CN generation, planning, join execution),
// which the paper re-runs from scratch on every query. It serves one
// call, Server.QueryScored, over one engine method (Engine), and
// provides
//
//   - a sharded LRU result cache with TTL and byte-budget eviction,
//     keyed on the normalized keyword bag plus the result-shaping
//     parameters, with the engine asked that bag, so "Codd relational"
//     and "Relational CODD" share an entry and get the same answer;
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
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/pipeline"
)

// ErrOverloaded is returned when admission control sheds a query: every
// execution slot stayed busy for the whole queue-wait deadline. Callers
// should map it to a retryable status (HTTP 503).
var ErrOverloaded = errors.New("qserve: overloaded: no execution slot within queue-wait deadline")

// Engine is the query pipeline qserve fronts: one top-k query ranked
// by a named scorer ("" selects the engine's default), returning the
// relaxation record when the query was rewritten to be answerable.
// *core.System and the shard coordinator implement it; tests substitute
// slow or blocking fakes.
type Engine interface {
	QueryScoredContext(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *pipeline.Relaxation, error)
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
	// Logf receives the serving layer's rare operational messages (first
	// index failure). Default log.Printf.
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

// QueryScored answers the top-k query ranked by the named scorer (""
// selects the engine's default), with the relaxation record when the
// query was rewritten to be answerable (nil otherwise). It normalizes
// the key, consults the cache, and collapses concurrent misses into one
// admitted pipeline execution. The engine is handed the key's
// normalized, sorted keywords, not the request's: result tie order and
// binding order follow keyword order, so every permutation a key stands
// for must get the answer its first arrival would have cached. Relaxed
// answers are cached with their record (relaxation is a deterministic
// function of the index), so a hit stays as loud as the original miss.
func (s *Server) QueryScored(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *pipeline.Relaxation, error) {
	start := time.Now()
	key, norm, err := cacheKey(keywords, k, scorer)
	if err != nil {
		return nil, nil, err
	}
	if s.cache != nil {
		if rs, meta, ok := s.cache.Get(key); ok {
			s.stats.hits.Add(1)
			s.stats.latency.Observe(time.Since(start))
			rx, _ := meta.(*pipeline.Relaxation)
			return rs, rx, nil
		}
	}
	rs, rx, joined, err := s.group.do(ctx, key, func(fctx context.Context) ([]exec.Result, *pipeline.Relaxation, error) {
		if err := s.admit(fctx); err != nil {
			return nil, nil, err
		}
		defer s.release()
		rs, rx, err := s.eng.QueryScoredContext(fctx, norm, k, scorer)
		if err != nil {
			return nil, nil, err
		}
		if s.cache != nil {
			var meta any
			if rx != nil {
				meta = rx
			}
			s.stats.evictions.Add(s.cache.Put(key, rs, meta))
		}
		if rx != nil {
			s.stats.relaxed.Add(1)
		}
		return rs, rx, nil
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
	return rs, rx, err
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
