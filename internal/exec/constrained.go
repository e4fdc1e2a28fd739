package exec

import (
	"slices"

	"repro/internal/kwindex"
	"repro/internal/optimizer"
)

// Constraint restricts an evaluation: PreBind fixes occurrences to
// specific target objects and Restrict narrows the admissible TO set of
// occurrences to an ascending slice (nil entries leave an occurrence
// unrestricted). The presentation module uses constraints to find
// minimal connections of a candidate node to the already-displayed
// graph (Figure 13).
type Constraint struct {
	PreBind  map[int]int64
	Restrict [][]int64
}

// EvaluateConstrained evaluates the plan with the constraint folded into
// the plan's keyword filters. If the plan's seed occurrence is free it
// must be pre-bound or restricted, otherwise the seed iterates nothing.
func (ex *Executor) EvaluateConstrained(p *optimizer.Plan, c Constraint, emit func(Result) bool) error {
	eff := *p
	eff.Filters = slices.Clone(p.Filters)
	for occ, f := range eff.Filters {
		if c.Restrict != nil && c.Restrict[occ] != nil {
			f = narrow(f, c.Restrict[occ])
		}
		if to, ok := c.PreBind[occ]; ok {
			f = narrow(f, []int64{to})
		}
		eff.Filters[occ] = f
	}
	return ex.Evaluate(&eff, emit)
}

// narrow intersects filter f (nil = free) with the ascending set s.
func narrow(f, s []int64) []int64 {
	if f == nil {
		return s
	}
	return kwindex.IntersectTOs(f, s)
}

// First returns the first result of a constrained evaluation, if any.
func (ex *Executor) First(p *optimizer.Plan, c Constraint) (Result, bool, error) {
	var out Result
	found := false
	err := ex.EvaluateConstrained(p, c, func(r Result) bool {
		out = r
		found = true
		return false
	})
	return out, found, err
}
