package exec

import "repro/internal/optimizer"

// Constraint restricts an evaluation: PreBind fixes occurrences to
// specific target objects and Restrict narrows the admissible TO set of
// occurrences (nil entries leave an occurrence unrestricted). The
// presentation module uses constraints to find minimal connections of a
// candidate node to the already-displayed graph (Figure 13).
type Constraint struct {
	PreBind  map[int]int64
	Restrict []map[int64]bool
}

// EvaluateConstrained evaluates the plan with the constraint folded into
// the plan's keyword filters. If the plan's seed occurrence is free it
// must be pre-bound or restricted, otherwise the seed iterates nothing.
func (ex *Executor) EvaluateConstrained(p *optimizer.Plan, c Constraint, emit func(Result) bool) error {
	eff := make([]map[int64]bool, len(p.Filters))
	for occ := range eff {
		sets := make([]map[int64]bool, 0, 3)
		if p.Filters[occ] != nil {
			sets = append(sets, p.Filters[occ])
		}
		if c.Restrict != nil && c.Restrict[occ] != nil {
			sets = append(sets, c.Restrict[occ])
		}
		if to, ok := c.PreBind[occ]; ok {
			sets = append(sets, map[int64]bool{to: true})
		}
		if len(sets) == 0 {
			continue
		}
		out := make(map[int64]bool)
		for to := range sets[0] {
			ok := true
			for _, s := range sets[1:] {
				if !s[to] {
					ok = false
					break
				}
			}
			if ok {
				out[to] = true
			}
		}
		eff[occ] = out
	}
	return ex.Evaluate(p.WithFilters(eff), emit)
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

// SortedSet renders a TO set as a sorted slice (test and display helper).
func SortedSet(set map[int64]bool) []int64 { return optimizer.SortedSet(set) }
