package fault

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Engine is the serving-path seam: the query engine the qserve layer
// drives (core.System and the shard coordinator implement it).
// EngineWrapper decorates one with injected latency, errors and hangs,
// so the chaos suite can starve admission slots and trip per-stage
// timeouts without touching the real pipeline.
type Engine interface {
	QueryScoredContext(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *pipeline.Relaxation, error)
}

// EngineProfile sets the per-query fault probabilities of an
// EngineWrapper. The zero value injects nothing.
type EngineProfile struct {
	// MaxLatency, when positive, delays each query a uniform
	// [0, MaxLatency) — cancelled early if the context ends.
	MaxLatency time.Duration
	// ErrProb is the probability a query fails with ErrInjected.
	ErrProb float64
	// HangProb is the probability a query blocks until its context ends
	// — the slot-starvation fault: the admission slot stays occupied for
	// the query's whole deadline.
	HangProb float64
}

// EngineWrapper injects faults in front of an Engine.
type EngineWrapper struct {
	inner Engine
	prof  EngineProfile

	mu sync.Mutex
	r  rng // guarded by mu

	// Injected-fault counters.
	Queries obs.Counter
	Delays  obs.Counter
	Errs    obs.Counter
	Hangs   obs.Counter
}

// NewEngine wraps inner with seed-driven query faults.
func NewEngine(seed int64, inner Engine, prof EngineProfile) *EngineWrapper {
	return &EngineWrapper{
		inner: inner,
		prof:  prof,
		r:     rng{state: uint64(seed)*0x9e3779b97f4a7c15 + 1},
	}
}

// decide rolls the per-query dice.
func (w *EngineWrapper) decide() (hang bool, fail bool, delay time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.prof.MaxLatency > 0 {
		delay = time.Duration(w.r.intn(int(w.prof.MaxLatency)))
	}
	if w.r.float() < w.prof.HangProb {
		return true, false, delay
	}
	if w.r.float() < w.prof.ErrProb {
		return false, true, delay
	}
	return false, false, delay
}

// inject applies this query's fault schedule; a nil return means the
// query may proceed to the real engine.
func (w *EngineWrapper) inject(ctx context.Context) error {
	w.Queries.Add(1)
	hang, fail, delay := w.decide()
	if hang {
		w.Hangs.Add(1)
		<-ctx.Done()
		return ctx.Err()
	}
	if delay > 0 {
		w.Delays.Add(1)
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if fail {
		w.Errs.Add(1)
		return fmt.Errorf("%w: engine", ErrInjected)
	}
	return nil
}

// QueryScoredContext runs the query's fault schedule, then the wrapped
// engine.
func (w *EngineWrapper) QueryScoredContext(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *pipeline.Relaxation, error) {
	if err := w.inject(ctx); err != nil {
		return nil, nil, err
	}
	return w.inner.QueryScoredContext(ctx, keywords, k, scorer)
}
