package exec

import (
	"context"

	"repro/internal/optimizer"
)

// RunPlans is the execution module's plan loop (§6): it evaluates the
// plans one after another on the caller's goroutine, in the given
// order, stamping each result's Ord with MakeOrd(plan index, emission
// sequence). plans is index-aligned with the query's CTSSNs, as
// pipeline.Query.Plans is; a nil plan (another shard's, see
// pipeline.Query.Own) is skipped but keeps its index. k ≤ 0 evaluates
// every plan fully. k > 0 caps each plan at k results, stops once k
// results exist, and returns the first k.
//
// Top-k correctness: the plans must be in ascending score order, as the
// reduce stage emits them, and every result of a plan carries that
// plan's network score, so results come out in the canonical (Score,
// Ord) order. Hence (a) a plan never needs to emit more than k results,
// and (b) once k results exist, the plans not yet run can only tie —
// never beat — the collected ones (same-score results from a later plan
// order after them). The first k results are therefore exactly the k
// canonically-smallest, and the same work is done on every run. A
// subset of the plans, as a shard evaluates, keeps the argument: a
// global top-k member from plan p is preceded by fewer than k results
// overall, so by fewer than k among the subset.
//
// The join loops poll ctx: a cancelled context stops the evaluation and
// RunPlans returns ctx's error with the results produced before it.
func RunPlans(ctx context.Context, ex *Executor, plans []*optimizer.Plan, k int, strategy Strategy) ([]Result, error) {
	var out []Result
	for pi, p := range plans {
		if p == nil {
			continue
		}
		if k > 0 && len(out) >= k {
			break
		}
		n := 0
		if err := ex.RunContext(ctx, p, strategy, func(r Result) bool {
			r.Ord = MakeOrd(pi, n)
			n++
			out = append(out, r)
			return k <= 0 || n < k
		}); err != nil {
			return out, err
		}
	}
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, ctx.Err()
}
