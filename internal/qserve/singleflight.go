package qserve

import (
	"context"
	"sync"

	"repro/internal/exec"
	"repro/internal/pipeline"
)

// flightGroup collapses concurrent calls with the same key into one
// execution (the classic singleflight, reimplemented here because the
// repo is stdlib-only), with one addition the serving layer needs: the
// shared execution runs on its own context that is cancelled when the
// last interested caller goes away, so a flight every client abandoned
// stops burning CPU mid-join, while one disconnecting client never
// fails the others.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight // guarded by mu
}

type flight struct {
	done      chan struct{} // closed when val/err are settled
	val       []exec.Result
	rx        *pipeline.Relaxation // relaxation record shared by all collapsed waiters
	err       error
	waiters   int
	abandoned bool // every waiter left; the flight is being cancelled
	cancel    context.CancelFunc
}

// do runs fn once per key across concurrent callers. The bool return
// is true when this caller joined an existing flight (a collapse).
// Callers whose ctx ends first detach with ctx's error; fn keeps
// running for the remaining waiters. The relaxation record fn reports
// is shared with every waiter — a collapsed query relaxed to be
// answerable is just as relaxed for the joiners.
func (g *flightGroup) do(ctx context.Context, key string, fn func(context.Context) ([]exec.Result, *pipeline.Relaxation, error)) ([]exec.Result, *pipeline.Relaxation, bool, error) {
	for {
		g.mu.Lock()
		if g.m == nil {
			g.m = make(map[string]*flight)
		}
		if f, ok := g.m[key]; ok {
			if f.abandoned {
				// The flight is dying of cancellation; don't inherit its
				// error — wait it out and start a fresh one.
				g.mu.Unlock()
				select {
				case <-f.done:
					continue
				case <-ctx.Done():
					return nil, nil, false, ctx.Err()
				}
			}
			f.waiters++
			g.mu.Unlock()
			return g.wait(ctx, f, true)
		}
		// The shared flight must outlive any single caller's ctx; it is cancelled separately when the last waiter leaves.
		fctx, cancel := context.WithCancel(context.Background())
		f := &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
		g.m[key] = f
		g.mu.Unlock()
		go func() {
			val, rx, err := fn(fctx)
			g.mu.Lock()
			f.val, f.rx, f.err = val, rx, err
			delete(g.m, key)
			g.mu.Unlock()
			close(f.done)
			cancel()
		}()
		return g.wait(ctx, f, false)
	}
}

// wait blocks until the flight settles or the caller's ctx ends; in the
// latter case it drops the caller's interest and cancels the flight if
// no one is left waiting.
func (g *flightGroup) wait(ctx context.Context, f *flight, joined bool) ([]exec.Result, *pipeline.Relaxation, bool, error) {
	select {
	case <-f.done:
		return f.val, f.rx, joined, f.err
	case <-ctx.Done():
		g.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		if last {
			f.abandoned = true
		}
		g.mu.Unlock()
		if last {
			f.cancel()
		}
		return nil, nil, joined, ctx.Err()
	}
}
