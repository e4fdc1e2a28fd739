package exec

import "repro/internal/kwindex"

// IsMinimal checks the strict MTNN condition of §3.1 on a result: no
// node can be removed with the tree remaining total. In a tree only
// leaves are removable, so a result is non-minimal exactly when some
// leaf occurrence's keywords all appear in other bound target objects —
// e.g. a product described as "set of VCR and DVD" already contains
// both keywords, making an attached part{vcr} leaf redundant.
//
// Like DISCOVER and DBXplorer, XKeyword's executor emits such results
// (each candidate network is evaluated independently); core's
// StrictMinimal option applies this check to make the semantics exact.
// tos maps each keyword of the result's network to the ascending TOs
// containing it on any schema node.
func IsMinimal(tos map[string][]int64, r Result) bool {
	if len(r.Net.Occs) <= 1 {
		return true
	}
	deg := make([]int, len(r.Net.Occs))
	for _, e := range r.Net.Edges {
		deg[e.From]++
		deg[e.To]++
	}
	for i, o := range r.Net.Occs {
		if deg[i] != 1 {
			continue // interior nodes are not removable from a tree
		}
		if o.Free() {
			// A free leaf makes the result trivially non-minimal; the
			// generator never emits such networks, but check anyway.
			return false
		}
		redundant := true
		for _, ka := range o.Keywords {
			set := tos[ka.Keyword]
			foundElsewhere := false
			for j, to := range r.Bind {
				if j == i {
					continue
				}
				if kwindex.HasTO(set, to) {
					foundElsewhere = true
					break
				}
			}
			if !foundElsewhere {
				redundant = false
				break
			}
		}
		if redundant {
			return false
		}
	}
	return true
}
