package exec

import (
	"context"
	"sort"
	"sync"

	"repro/internal/optimizer"
)

// TopKOptions configure the thread-pool top-k evaluation of §6.
type TopKOptions struct {
	K        int
	Workers  int // pool size; default 4
	Strategy Strategy
}

// Planned pairs a plan with the CN it came from, for bookkeeping.
type Planned struct {
	Plan *optimizer.Plan
}

// TopKPlans evaluates the plans (which must be sorted by ascending
// score, as the CN generator emits them) with a pool of workers, one
// plan per worker starting from the smallest networks, and stops once K
// results have been produced in total. Results are returned sorted by
// score.
//
// Because smaller networks need less execution time and produce
// higher-ranked results, assigning threads smallest-first yields the
// paper's fast first-response behaviour (§6).
func TopKPlans(ex *Executor, plans []Planned, opts TopKOptions) []Result {
	out, _ := TopKPlansContext(context.Background(), ex, plans, opts)
	return out
}

// TopKPlansContext is TopKPlans with cooperative cancellation: workers
// poll ctx inside their join loops, so a cancelled context stops all
// in-flight evaluations and the call returns ctx's error along with
// whatever results were produced before the cancellation.
//
// Top-K correctness: every result of a plan carries that plan's network
// score, and plans are handed out in ascending score order, so (a) a
// plan never needs to emit more than K results, and (b) once K results
// exist, plans not yet handed out can only tie — never beat — the
// collected ones (same-score results from a later plan order after
// them in the canonical (Score, Ord) order). A handed-out plan may
// still beat — or tie-break ahead of — results produced concurrently by
// later plans, so a worker skips its plan only when K results that
// canonically precede the plan's smallest possible result already
// exist, never merely because K results exist. That makes the returned
// result list deterministic where a first-K-results-win stop would
// depend on scheduling.
func TopKPlansContext(ctx context.Context, ex *Executor, plans []Planned, opts TopKOptions) ([]Result, error) {
	if opts.K <= 0 {
		return nil, ctx.Err()
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	var col topkCollector
	type fed struct {
		p   Planned
		idx int // position in the ascending-score plan list, for Ord
	}
	next := make(chan fed)
	var wg sync.WaitGroup
	for w := 0; w < min(opts.Workers, len(plans)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range next {
				if col.countBeating(f.p.Plan.Net.Score(), MakeOrd(f.idx, 0)) >= opts.K || ctx.Err() != nil {
					continue // drain; K canonically-smaller results already exist
				}
				n := 0
				// The only error RunContext can return is ctx's, which the
				// ctx.Err() check after wg.Wait() reports for all workers.
				_ = ex.RunContext(ctx, f.p.Plan, opts.Strategy, func(r Result) bool {
					r.Ord = MakeOrd(f.idx, n)
					col.add(r)
					n++
					return n < opts.K
				})
			}
		}()
	}
feed:
	for i, p := range plans {
		if col.count() >= opts.K {
			break
		}
		select {
		case next <- fed{p: p, idx: i}:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	results := col.take()
	if err := ctx.Err(); err != nil {
		return results, err
	}
	// Sort by the canonical (Score, Ord) total order, not merely by
	// score: the collected set is a superset of the canonical top-K (the
	// skip rule only drops plans that K at-or-below-score results already
	// beat or tie), so sorting canonically and truncating yields exactly
	// the K canonically-smallest results regardless of worker scheduling.
	sort.Slice(results, func(i, j int) bool { return OrdLess(results[i], results[j]) })
	if len(results) > opts.K {
		results = results[:opts.K]
	}
	return results, nil
}

// topkCollector is the workers' shared result sink.
type topkCollector struct {
	mu      sync.Mutex
	results []Result // guarded by mu
}

func (c *topkCollector) add(r Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results = append(c.results, r)
}

func (c *topkCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.results)
}

// countBeating reports how many collected results canonically precede
// (score, ord) — where ord is a plan's smallest possible order key,
// MakeOrd(idx, 0). Only when K such results exist can that plan
// contribute nothing to the canonical top-K. Counting merely "score at
// or below" is not enough: a same-score result emitted concurrently by
// a LATER plan orders after this plan's results, so it must not justify
// skipping them.
func (c *topkCollector) countBeating(score int, ord int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.results {
		if r.Score < score || (r.Score == score && r.Ord < ord) {
			n++
		}
	}
	return n
}

// take hands the collected results to the caller; the workers must have
// finished.
func (c *topkCollector) take() []Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.results
}
