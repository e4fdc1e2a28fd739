package exec

import (
	"context"
	"sort"

	"repro/internal/optimizer"
)

// TopKOptions configure the top-k evaluation of §6.
type TopKOptions struct {
	K        int
	Strategy Strategy
}

// Planned pairs a plan with the CN it came from, for bookkeeping.
type Planned struct {
	Plan *optimizer.Plan
}

// TopKPlans evaluates the plans (which must be sorted by ascending
// score, as the CN generator emits them) smallest-first, on the
// caller's goroutine, and stops once K results have been produced in
// total. Results are returned sorted by score.
//
// Because smaller networks need less execution time and produce
// higher-ranked results, evaluating smallest-first yields the paper's
// fast first-response behaviour (§6).
func TopKPlans(ex *Executor, plans []Planned, opts TopKOptions) []Result {
	out, _ := TopKPlansContext(context.Background(), ex, plans, opts)
	return out
}

// TopKPlansContext is TopKPlans with cooperative cancellation: the join
// loops poll ctx, so a cancelled context stops the in-flight evaluation
// and the call returns ctx's error along with whatever results were
// produced before the cancellation.
//
// Top-K correctness: every result of a plan carries that plan's network
// score, and plans run in ascending score order, so (a) a plan never
// needs to emit more than K results, and (b) once K results exist, the
// plans not yet run can only tie — never beat — the collected ones
// (same-score results from a later plan order after them in the
// canonical (Score, Ord) order). Running plans one after another in
// that order therefore returns exactly the K canonically-smallest
// results, and the same work, on every run.
func TopKPlansContext(ctx context.Context, ex *Executor, plans []Planned, opts TopKOptions) ([]Result, error) {
	if opts.K <= 0 {
		return nil, ctx.Err()
	}
	var results []Result
	for idx, p := range plans {
		if len(results) >= opts.K || ctx.Err() != nil {
			break
		}
		n := 0
		// The only error RunContext can return is ctx's, which the
		// check after the loop reports.
		_ = ex.RunContext(ctx, p.Plan, opts.Strategy, func(r Result) bool {
			r.Ord = MakeOrd(idx, n)
			results = append(results, r)
			n++
			return n < opts.K
		})
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	sort.Slice(results, func(i, j int) bool { return OrdLess(results[i], results[j]) })
	if len(results) > opts.K {
		results = results[:opts.K]
	}
	return results, nil
}
