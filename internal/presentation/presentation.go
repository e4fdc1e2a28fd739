// Package presentation implements XKeyword's interactive presentation
// graphs (paper §3.1): per candidate network, a graph of all target
// objects participating in its MTTONs, of which an active subgraph is
// displayed and grown/shrunk on demand by the user's expansion and
// contraction clicks, populated by minimal sets of focused queries
// against the connection relations (§6, Figure 13).
package presentation

import (
	"fmt"
	"slices"

	"repro/internal/cn"
	"repro/internal/decomp"
	"repro/internal/exec"
	"repro/internal/kwindex"
	"repro/internal/optimizer"
	"repro/internal/relstore"
	"repro/internal/tss"
)

// Session holds the execution machinery shared by the presentation
// graphs of one keyword query. Fragments selects which connection
// relations the on-demand queries may probe — the minimal / inlined /
// combination variants of Figure 16(b). Fallback, if non-nil, is used
// when Fragments cannot cover a focused query's subnetwork (e.g. the
// inlined set probing a single-edge region).
type Session struct {
	TSS       *tss.Graph
	Obj       *tss.ObjectGraph
	Store     *relstore.Store
	Index     kwindex.Source
	Stats     *tss.Stats
	Fragments []decomp.Fragment
	Fallback  []decomp.Fragment
	// Cache enables lookup memoization across the session's queries.
	Cache *exec.LookupCache
}

func (s *Session) executor() *exec.Executor {
	return &exec.Executor{Store: s.Store, TSS: s.TSS, Cache: s.Cache}
}

func (s *Session) optimizer(frags []decomp.Fragment, hint []bool) *optimizer.Optimizer {
	return &optimizer.Optimizer{
		TSS:            s.TSS,
		Store:          s.Store,
		Index:          s.Index,
		Stats:          s.Stats,
		Fragments:      frags,
		MaxJoins:       -1, // focused queries use whatever cover exists
		CostBased:      hint != nil,
		RestrictedHint: hint,
	}
}

// planSeeded plans a (sub)network seeded at occurrence seed, trying the
// session's probe set first and the fallback set second. hint marks the
// occurrences whose bindings the caller will restrict at run time, which
// drives the cost-based relation choice of §4.
func (s *Session) planSeeded(t *cn.TSSNetwork, seed int, hint []bool) (*optimizer.Plan, error) {
	p, err := s.optimizer(s.Fragments, hint).PlanSeeded(t, seed)
	if err != nil && s.Fallback != nil {
		return s.optimizer(s.Fallback, hint).PlanSeeded(t, seed)
	}
	return p, err
}

// planVariants returns the plan alternatives for a seeded subnetwork —
// the minimum-join cover and the edge-by-edge cover when the probe set
// offers both. Expand samples them and keeps the cheaper.
func (s *Session) planVariants(t *cn.TSSNetwork, seed int, hint []bool) ([]*optimizer.Plan, error) {
	ps, err := s.optimizer(s.Fragments, hint).PlanSeededVariants(t, seed)
	if err != nil && s.Fallback != nil {
		return s.optimizer(s.Fallback, hint).PlanSeededVariants(t, seed)
	}
	return ps, err
}

// Graph is the presentation graph of one candidate network. Active[i]
// is the ascending set of displayed target objects for occurrence i;
// every displayed node belongs to at least one MTTON whose nodes are
// all displayed (§3.1 property (c)).
type Graph struct {
	Net      *cn.TSSNetwork
	Active   [][]int64
	Expanded []bool
	sess     *Session
}

// Build creates the initial presentation graph PG0: a single, top-1
// MTTON of the network.
func (s *Session) Build(t *cn.TSSNetwork) (*Graph, error) {
	opt := s.optimizer(s.Fragments, nil)
	p, err := opt.Plan(t)
	if err != nil && s.Fallback != nil {
		p, err = s.optimizer(s.Fallback, nil).Plan(t)
	}
	if err != nil {
		return nil, err
	}
	ex := s.executor()
	r, found, err := ex.First(p, exec.Constraint{})
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("presentation: network %s has no results", t)
	}
	g := &Graph{
		Net:      t,
		Active:   make([][]int64, len(t.Occs)),
		Expanded: make([]bool, len(t.Occs)),
		sess:     s,
	}
	for i := range g.Active {
		g.Active[i] = []int64{r.Bind[i]}
	}
	return g, nil
}

// NumDisplayed returns the number of displayed nodes.
func (g *Graph) NumDisplayed() int {
	n := 0
	for _, set := range g.Active {
		n += len(set)
	}
	return n
}

// Displayed returns the displayed TOs of occurrence occ, sorted.
func (g *Graph) Displayed(occ int) []int64 {
	return slices.Clone(g.Active[occ])
}

// ExpandOptions tune Expand.
type ExpandOptions struct {
	// MaxNodes caps how many new nodes are displayed (the UI shows the
	// first 10 when more fit; 0 = unlimited).
	MaxNodes int
}

// subnet is the fresh region of radius d around an occurrence plus its
// displayed boundary, projected as a standalone network.
type subnet struct {
	net   *cn.TSSNetwork
	toSub map[int]int // original occ -> subnet occ
	occs  []int       // subnet occ -> original occ
	fresh map[int]bool
}

// subnetwork projects the occurrences within tree distance d of occ
// (fresh) together with their immediate displayed neighbors (boundary).
// Because the CTSSN is a tree and every displayed boundary node already
// lies on a displayed MTTON (property (c)), a binding of this subnetwork
// extends to a full MTTON of the network, so focused queries need only
// this region (§6's minimal set of focused queries).
func (g *Graph) subnetwork(occ, d int) subnet {
	dist := g.treeDistances(occ)
	include := make(map[int]bool)
	fresh := make(map[int]bool)
	for i, di := range dist {
		if di <= d {
			include[i] = true
			fresh[i] = true
		}
	}
	for _, e := range g.Net.Edges {
		if fresh[e.From] && !include[e.To] {
			include[e.To] = true
		}
		if fresh[e.To] && !include[e.From] {
			include[e.From] = true
		}
	}
	sn := subnet{net: &cn.TSSNetwork{CN: g.Net.CN}, toSub: make(map[int]int), fresh: fresh}
	for i := range g.Net.Occs {
		if !include[i] {
			continue
		}
		sn.toSub[i] = len(sn.net.Occs)
		sn.occs = append(sn.occs, i)
		o := g.Net.Occs[i]
		if !fresh[i] {
			// Boundary occurrences are restricted to displayed nodes,
			// which already satisfied their keyword constraints.
			o = cn.TSSOcc{Segment: o.Segment}
		}
		sn.net.Occs = append(sn.net.Occs, o)
	}
	for _, e := range g.Net.Edges {
		fi, fok := sn.toSub[e.From]
		ti, tok := sn.toSub[e.To]
		if fok && tok && (fresh[e.From] || fresh[e.To]) {
			sn.net.Edges = append(sn.net.Edges, cn.TSSEdgeRef{From: fi, To: ti, EdgeID: e.EdgeID})
		}
	}
	return sn
}

// Expand implements the on-demand expansion algorithm of Figure 13 on
// occurrence occ: every target object of that occurrence's type that
// connects to all keywords through the presentation graph — with as few
// fresh ("extra") edges as possible — is added together with its minimal
// connection. It returns the number of target objects added at occ.
func (g *Graph) Expand(occ int, opts ExpandOptions) (int, error) {
	if occ < 0 || occ >= len(g.Net.Occs) {
		return 0, fmt.Errorf("presentation: occurrence %d out of range", occ)
	}
	s := g.sess
	ex := s.executor()

	// Candidate set S: all target objects of the occurrence's segment,
	// narrowed by its keyword constraint if any.
	candidates := g.sess.Obj.BySegment(g.Net.Occs[occ].Segment)
	if kws := g.Net.Occs[occ].Keywords; len(kws) > 0 {
		sets := make(optimizer.TOSets)
		var filtered []int64
		for _, to := range candidates {
			ok := true
			for _, ka := range kws {
				if !kwindex.HasTO(sets.Get(s.Index, ka), to) {
					ok = false
					break
				}
			}
			if ok {
				filtered = append(filtered, to)
			}
		}
		candidates = filtered
	}

	dist := g.treeDistances(occ)
	maxDist := 0
	for _, di := range dist {
		if di > maxDist {
			maxDist = di
		}
	}
	// Pre-plan the focused queries per radius; all candidates share
	// them. Where the probe set offers both a min-join and an
	// edge-by-edge cover, both variants are kept and sampled: the first
	// candidates run each variant in turn, the rest use whichever
	// measured cheaper (adaptive relation choice, §4).
	type radiusPlan struct {
		sn       subnet
		variants []*optimizer.Plan
		cost     []float64
		uses     []int
	}
	plans := make([]radiusPlan, 0, maxDist+1)
	for d := 0; d <= maxDist; d++ {
		sn := g.subnetwork(occ, d)
		hint := make([]bool, len(sn.net.Occs))
		for si, orig := range sn.occs {
			hint[si] = !sn.fresh[orig]
		}
		ps, err := s.planVariants(sn.net, sn.toSub[occ], hint)
		if err != nil {
			return 0, fmt.Errorf("presentation: radius %d: %w", d, err)
		}
		plans = append(plans, radiusPlan{
			sn:       sn,
			variants: ps,
			cost:     make([]float64, len(ps)),
			uses:     make([]int, len(ps)),
		})
	}
	const sampleRuns = 4
	pickVariant := func(rp *radiusPlan) int {
		best, bestAvg := 0, -1.0
		for i := range rp.variants {
			if rp.uses[i] < sampleRuns {
				return i
			}
			if avg := rp.cost[i] / float64(rp.uses[i]); bestAvg < 0 || avg < bestAvg {
				best, bestAvg = i, avg
			}
		}
		return best
	}
	ioCost := func(before, after relstore.IOStats) float64 {
		rand := (after.PageReads - after.SeqReads) - (before.PageReads - before.SeqReads)
		seq := after.SeqReads - before.SeqReads
		looks := after.Lookups - before.Lookups
		return float64(rand) + float64(seq)/relstore.SeqFactor + 0.1*float64(looks)
	}

	added := 0
	newBind := make(map[int][]int64)
	for _, u := range candidates {
		if kwindex.HasTO(g.Active[occ], u) {
			continue // already displayed
		}
		if opts.MaxNodes > 0 && added >= opts.MaxNodes {
			break
		}
		found := false
		for d := 0; d <= maxDist && !found; d++ {
			rp := &plans[d]
			restrict := make([][]int64, len(rp.sn.net.Occs))
			for si, orig := range rp.sn.occs {
				if !rp.sn.fresh[orig] {
					restrict[si] = g.Active[orig]
				}
			}
			vi := pickVariant(rp)
			before := s.Store.Stats.Snapshot()
			r, ok, err := ex.First(rp.variants[vi], exec.Constraint{
				PreBind:  map[int]int64{rp.sn.toSub[occ]: u},
				Restrict: restrict,
			})
			rp.cost[vi] += ioCost(before, s.Store.Stats.Snapshot())
			rp.uses[vi]++
			if err != nil {
				return added, err
			}
			if !ok {
				continue
			}
			found = true
			added++
			for si, to := range r.Bind {
				newBind[rp.sn.occs[si]] = append(newBind[rp.sn.occs[si]], to)
			}
		}
	}
	for i, tos := range newBind {
		g.Active[i] = sortedSet(append(g.Active[i], tos...))
	}
	g.Expanded[occ] = true
	return added, nil
}

// Contract implements §3.1's contraction on occurrence occ: all its
// nodes except keep are hidden, along with the minimum number of other
// nodes needed so every displayed node still lies on a displayed MTTON.
func (g *Graph) Contract(occ int, keep int64) error {
	if occ < 0 || occ >= len(g.Net.Occs) {
		return fmt.Errorf("presentation: occurrence %d out of range", occ)
	}
	if !kwindex.HasTO(g.Active[occ], keep) {
		return fmt.Errorf("presentation: TO %d not displayed at occurrence %d", keep, occ)
	}
	s := g.sess
	hint := make([]bool, len(g.Net.Occs))
	for i := range hint {
		hint[i] = i != occ
	}
	plan, err := s.planSeeded(g.Net, occ, hint)
	if err != nil {
		return err
	}
	ex := s.executor()
	restrict := make([][]int64, len(g.Net.Occs))
	for i := range restrict {
		if i != occ {
			restrict[i] = g.Active[i]
		}
	}
	next := make([][]int64, len(g.Net.Occs))
	err = ex.EvaluateConstrained(plan, exec.Constraint{
		PreBind:  map[int]int64{occ: keep},
		Restrict: restrict,
	}, func(r exec.Result) bool {
		for i, to := range r.Bind {
			next[i] = append(next[i], to)
		}
		return true
	})
	if err != nil {
		return err
	}
	for i := range next {
		next[i] = sortedSet(next[i])
	}
	if !kwindex.HasTO(next[occ], keep) {
		return fmt.Errorf("presentation: kept node %d lies on no displayed MTTON", keep)
	}
	g.Active = next
	g.Expanded[occ] = false
	return nil
}

// sortedSet sorts tos in place and drops its duplicates.
func sortedSet(tos []int64) []int64 {
	slices.Sort(tos)
	return slices.Compact(tos)
}

// treeDistances returns, per occurrence, the tree distance from occ.
func (g *Graph) treeDistances(occ int) []int {
	dist := make([]int, len(g.Net.Occs))
	for i := range dist {
		dist[i] = -1
	}
	dist[occ] = 0
	queue := []int{occ}
	adj := make([][]int, len(g.Net.Occs))
	for _, e := range g.Net.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if dist[nb] < 0 {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	for i, d := range dist {
		if d < 0 {
			dist[i] = 0
		}
	}
	return dist
}
