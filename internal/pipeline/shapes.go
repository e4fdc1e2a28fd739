package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/lru"
)

// coldBuildLimit bounds one cold shape build: the CN generator and the
// template compile poll its context. A build does not run under the
// request that started it. A request that gives up on a cold miss
// stops waiting, but the build goes on and publishes its template, so
// a shape whose build outlasts a client's timeout still warms: a shard
// coordinator gives each shard request 5 s by default, under the 8.2 s
// of five title words (see maxQueryKeywords). Its retries join the
// build in flight rather than start it over. A minute lets those
// shapes warm while keeping any one build from holding a core longer.
const coldBuildLimit = time.Minute

// shapesCap bounds the distinct keyword shapes one memo holds.
const shapesCap = 256

// buildSlots holds one token per cold shape build running in the
// process, so requests that abandon their builds cannot stack up work
// past the cores.
var buildSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// Shapes is the shape memo: what the query stage derives from a keyword
// query depends, up to the point containing-list sizes pick each plan's
// seed, only on the query's shape — which schema nodes hold each
// keyword, under which Z, and which keywords are equal — so queries
// with the same shape (e.g. any two author names) share one Template.
// It is a bounded LRU keyed by the shape signature, and an entry is the
// shape's build: a miss inserts one and starts it, later misses join
// it, and it publishes by finishing. A build runs detached from the
// requests that wait on it, under coldBuildLimit: unlike qserve's
// flight group, which cancels a query once its last waiter leaves, a
// build is never cancelled, because finishing it is what warms the
// shape. One memo serves one schema, so each System owns its own and
// drops it with the System. Safe for concurrent use.
type Shapes struct {
	c     *lru.Cache[string, *shape]
	slots chan struct{} // buildSlots; a test's own
}

// shape is one entry of the memo: one shape's build.
type shape struct {
	done chan struct{} // closed once t and err are set
	t    *Template
	err  error
}

// NewShapes returns an empty shape memo.
func NewShapes() *Shapes {
	return &Shapes{c: lru.New(lru.Config[string, *shape]{MaxEntries: shapesCap}), slots: buildSlots}
}

// Len returns the number of shapes held, built or being built.
func (m *Shapes) Len() int { return m.c.Len() }

// built returns sig's template if its build has already published.
func (m *Shapes) built(sig string) (*Template, bool) {
	if e, ok := m.c.Get(sig); ok {
		select {
		case <-e.done:
			return e.t, e.err == nil
		default:
		}
	}
	return nil, false
}

// wait returns sig's template: it joins the build in flight, or takes a
// build slot and starts one. A caller whose ctx ends first, waiting for
// a slot or for the build, gets ctx's error; a build it started goes
// on. A miss that gets no slot starts nothing.
func (m *Shapes) wait(ctx context.Context, sig string, build func(context.Context) (*Template, error)) (*Template, error) {
	e, ok := m.c.Get(sig)
	if !ok {
		select {
		case m.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		mine := &shape{done: make(chan struct{})}
		if e, ok = m.c.GetOrPut(sig, mine); ok {
			<-m.slots // another miss inserted its build first
		} else {
			go m.run(sig, e, build)
		}
	}
	select {
	case <-e.done:
		return e.t, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// run builds e under coldBuildLimit and publishes it. A failed build
// removes its entry first, if the entry is still its own, so the next
// miss builds again; its waiters get the error.
func (m *Shapes) run(sig string, e *shape, build func(context.Context) (*Template, error)) {
	ctx, cancel := context.WithTimeout(context.Background(), coldBuildLimit)
	e.t, e.err = build(ctx)
	cancel()
	if e.err != nil {
		if errors.Is(e.err, context.DeadlineExceeded) {
			e.err = fmt.Errorf("pipeline: keyword shape not built within %v", coldBuildLimit)
		}
		m.c.DeleteIf(sig, func(cur *shape) bool { return cur == e })
	}
	<-m.slots
	close(e.done)
}
