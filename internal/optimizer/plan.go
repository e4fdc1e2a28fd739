// Package optimizer turns candidate TSS networks into execution plans
// (paper §4): it chooses which connection relations evaluate each CTSSN
// (the fragment cover, with at most B joins when the decomposition
// allows), orders the nested loops starting from the keyword with the
// smallest containing list (§6), and prefers probe directions that are
// clustered or indexed. Common subexpressions across the CNs of one
// keyword query are reused through the executor's shared lookup cache.
package optimizer

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/cn"
	"repro/internal/decomp"
	"repro/internal/kwindex"
	"repro/internal/relstore"
	"repro/internal/tss"
)

// Step is one operation of a plan's nested-loop pipeline.
type Step struct {
	// Seed steps iterate the containing list of a keyword occurrence.
	Seed bool
	// Occ is the occurrence a seed step binds.
	Occ int

	// Piece steps probe a connection relation.
	Piece decomp.Piece
	// ProbePos is the position in Piece.Occs (== relation column) whose
	// occurrence is already bound and is used for the lookup.
	ProbePos int
	// CheckPos are further positions already bound: rows must agree.
	CheckPos []int
	// NewPos are positions bound by this step.
	NewPos []int

	// Rel is the piece's connection relation and Probe its access path
	// for lookups on ProbePos, resolved against the optimizer's store
	// when the step list is built — once per (shape, seed), so the
	// executor never looks a relation up by name or searches its
	// physical design per probe. Rel is nil when the relation is not
	// materialized; such a step plans but does not execute.
	Rel   *relstore.Relation
	Probe relstore.Access
	// Push lists, in NewPos order, the newly bound positions a small
	// keyword filter can be pushed into: the relation holds a copy
	// sorted on (ProbePos, Pos), probed with composite point lookups.
	Push []Pushdown
}

// Pushdown is one composite access path of a piece step.
type Pushdown struct {
	Pos    int // the newly bound position the filter constrains
	Access relstore.Access
}

// PushdownMaxSet bounds how large a keyword TO set is still worth
// iterating as composite point lookups instead of one range probe.
const PushdownMaxSet = 8

// Plan evaluates one CTSSN.
type Plan struct {
	Net   *cn.TSSNetwork
	Steps []Step
	// Joins is the number of piece-to-piece joins (pieces - 1).
	Joins int
	// Filters holds, per occurrence, the TO set every binding must fall
	// in (intersection of the keyword containing lists); nil = free.
	// Replace them with WithFilters, which keeps sorted in step.
	Filters []map[int64]bool
	// sorted holds Filters[occ] ascending for the occurrences the
	// executor iterates in order: the seed, and every filter small
	// enough to push down. Computed once per plan, not per probe.
	sorted [][]int64
}

// newPlan assembles a plan and pre-sorts the filters its execution
// iterates.
func newPlan(t *cn.TSSNetwork, steps []Step, joins int, filters []map[int64]bool) *Plan {
	p := &Plan{Net: t, Steps: steps, Joins: joins, Filters: filters, sorted: make([][]int64, len(filters))}
	for occ, f := range filters {
		if f != nil && (occ == steps[0].Occ || len(f) <= PushdownMaxSet) {
			p.sorted[occ] = SortedSet(f)
		}
	}
	return p
}

// WithFilters returns a copy of the plan evaluating under other filters
// (the presentation module's run-time restrictions).
func (p *Plan) WithFilters(filters []map[int64]bool) *Plan {
	return newPlan(p.Net, p.Steps, p.Joins, filters)
}

// Optimizer builds plans against a materialized decomposition.
type Optimizer struct {
	TSS   *tss.Graph
	Store *relstore.Store
	// Index is the master index backend, in-memory or disk-backed.
	Index kwindex.Source
	Stats *tss.Stats
	// Fragments available (union of the materialized decompositions).
	Fragments []decomp.Fragment
	// MaxJoins is B; covers use at most this many joins when possible
	// and fall back to unbounded otherwise.
	MaxJoins int
	// CostBased also considers the all-single-edge cover and picks the
	// cheaper plan by estimated I/O; set by the presentation module,
	// whose focused queries restrict most occurrences at run time.
	CostBased bool
	// RestrictedHint marks occurrences whose bindings will be restricted
	// to near-singleton sets at run time, for cost estimation.
	RestrictedHint []bool
}

// estimateCost predicts a plan's probe cost when driven from a single
// seed binding: per step, the expected rows a probe returns (fanout
// product along the piece) charged as one seek plus transfer, multiplied
// by the expected number of probe invocations.
func (o *Optimizer) estimateCost(p *Plan) float64 {
	const pageRows = 128
	bindings := 1.0
	cost := 0.0
	sel := func(occ int) float64 {
		s := 1.0
		if p.Filters[occ] != nil {
			s *= 0.05
		}
		if o.RestrictedHint != nil && occ < len(o.RestrictedHint) && o.RestrictedHint[occ] {
			s *= 0.05
		}
		return s
	}
	for _, st := range p.Steps {
		if st.Seed {
			continue
		}
		steps := st.Piece.Frag.Steps()
		rows := 1.0
		for pos := st.ProbePos; pos+1 < len(st.Piece.Occs); pos++ {
			rows *= o.stepFanout(steps[pos], true)
		}
		for pos := st.ProbePos; pos-1 >= 0; pos-- {
			rows *= o.stepFanout(steps[pos-1], false)
		}
		cost += bindings * (1 + rows/pageRows)
		next := bindings * rows
		for _, pos := range st.NewPos {
			next *= sel(st.Piece.Occs[pos])
		}
		if next < 0.01 {
			next = 0.01
		}
		bindings = next
	}
	return cost
}

// Shape is the keyword-independent half of a CTSSN's plan — everything
// the optimizer decides before it looks at a containing list: the
// fragment cover and, per seed occurrence, the nested-loop step order
// (buildSteps only asks whether an occurrence is keyword-constrained,
// never how large its filter is). The seed itself depends on the filter
// sizes (§6), so it is chosen per query by Bind; a Shape compiled from
// one network serves every network of the same structure, whatever its
// keywords. Safe for concurrent use; the step slices it hands out are
// shared between plans and must not be modified.
type Shape struct {
	pieces []decomp.Piece
	keyed  []bool // per occurrence: carries a keyword constraint
	profit []bool // per occurrence: cacheProfitable

	mu    sync.Mutex
	steps [][]Step // guarded by mu — per seed occurrence, nil until first bound
}

// Compile derives the structural half of t's plan: the minimum-piece
// fragment cover within the join budget (unbounded when the
// decomposition cannot meet it).
func (o *Optimizer) Compile(t *cn.TSSNetwork) (*Shape, error) {
	sh := &Shape{
		keyed:  make([]bool, len(t.Occs)),
		profit: make([]bool, len(t.Occs)),
		steps:  make([][]Step, len(t.Occs)),
	}
	for i, occ := range t.Occs {
		sh.keyed[i] = !occ.Free()
		sh.profit[i] = o.cacheProfitable(t, i)
	}
	if t.Size() == 0 {
		return sh, nil // single occurrence: one seed step, nothing to cover
	}
	pieces, ok := decomp.Cover(o.TSS, t, o.Fragments, o.MaxJoins)
	if !ok {
		if pieces, ok = decomp.Cover(o.TSS, t, o.Fragments, -1); !ok {
			return nil, fmt.Errorf("optimizer: network %s not coverable by the decomposition", t)
		}
	}
	sh.pieces = pieces
	return sh, nil
}

// TOSets memoizes the (keyword, schema node) TO sets of one keyword
// query, so each is read from the index once however many networks
// constrain on it. The sets end up shared between the plans' Filters
// and are read-only from then on.
type TOSets map[cn.KeywordAt]map[int64]bool

// Bind instantiates a compiled shape for network t of one query: it
// computes t's filters through sets, seeds the nested loop at the
// keyword occurrence with the smallest containing list (§6) and attaches
// the shape's step order for that seed. t must have the structure the
// shape was compiled from.
func (o *Optimizer) Bind(sh *Shape, t *cn.TSSNetwork, sets TOSets) (*Plan, error) {
	return o.bind(sh, t, o.filters(t, sets), -1)
}

func (o *Optimizer) bind(sh *Shape, t *cn.TSSNetwork, filters []map[int64]bool, seed int) (*Plan, error) {
	if seed < 0 {
		if t.Size() == 0 && t.Occs[0].Free() {
			return nil, fmt.Errorf("optimizer: single free occurrence")
		}
		if seed = sh.pickSeed(filters); seed < 0 {
			return nil, fmt.Errorf("optimizer: network %s has no keyword occurrence", t)
		}
	}
	steps, err := sh.stepsFor(o, t, seed)
	if err != nil {
		return nil, err
	}
	return newPlan(t, steps, max(len(sh.pieces)-1, 0), filters), nil
}

// stepsFor returns the shape's step order seeded at occurrence seed,
// building it on first use.
func (sh *Shape) stepsFor(o *Optimizer, t *cn.TSSNetwork, seed int) ([]Step, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.steps[seed] == nil {
		steps, err := o.buildSteps(t, sh.keyed, seed, sh.pieces)
		if err != nil {
			return nil, err
		}
		sh.steps[seed] = steps
	}
	return sh.steps[seed], nil
}

// pickSeed is the seed choice of §6: primarily the keyword occurrence
// with the smallest containing list; between comparable lists (within
// 2x), prefer a cache-profitable occurrence — one whose step away leads
// to a shared neighbor (to-one traversal), so the inner queries repeat
// and the lookup cache absorbs them. This is why the paper's example
// iterates the VCR part outermost: many sub-parts share one parent
// part, while the reverse direction fans out. Returns -1 when no
// occurrence is keyword-constrained.
func (sh *Shape) pickSeed(filters []map[int64]bool) int {
	seed, seedSize, seedProfit := -1, -1, false
	for i, f := range filters {
		if f == nil {
			continue
		}
		profit := sh.profit[i]
		better := false
		switch {
		case seed < 0:
			better = true
		case len(f)*2 < seedSize || seedSize*2 < len(f):
			better = len(f) < seedSize // lists differ a lot: size rules
		case profit != seedProfit:
			better = profit // comparable lists: cacheability rules
		default:
			better = len(f) < seedSize
		}
		if better {
			seed, seedSize, seedProfit = i, len(f), profit
		}
	}
	return seed
}

// Plan builds the execution plan for one CTSSN from scratch — compile,
// then bind — seeding the nested loop at the keyword occurrence with
// the smallest containing list (§6). The query pipeline compiles once
// per keyword shape and only binds per query; Plan is what a shape
// template is checked against, and the presentation module's entry.
func (o *Optimizer) Plan(t *cn.TSSNetwork) (*Plan, error) {
	return o.plan(t, -1)
}

// PlanSeeded builds a plan whose outermost loop iterates occurrence
// seed, regardless of keywords — used by the presentation module, which
// evaluates networks anchored at a user-chosen node.
func (o *Optimizer) PlanSeeded(t *cn.TSSNetwork, seed int) (*Plan, error) {
	if seed < 0 || seed >= len(t.Occs) {
		return nil, fmt.Errorf("optimizer: seed occurrence %d out of range", seed)
	}
	return o.plan(t, seed)
}

// PlanSeededVariants returns the distinct plan alternatives for a seeded
// network: the minimum-piece cover and, when single-edge fragments can
// cover the network, the edge-by-edge cover. The presentation module
// samples both at run time and keeps the cheaper — the adaptive half of
// the optimizer's relation-choice problem (§4).
func (o *Optimizer) PlanSeededVariants(t *cn.TSSNetwork, seed int) ([]*Plan, error) {
	if seed < 0 || seed >= len(t.Occs) {
		return nil, fmt.Errorf("optimizer: seed occurrence %d out of range", seed)
	}
	base, err := o.plan(t, seed)
	if err != nil {
		return nil, err
	}
	out := []*Plan{base}
	if alt := o.singleEdgePlan(t, base.Filters, seed); alt != nil && alt.Joins != base.Joins {
		out = append(out, alt)
	}
	return out, nil
}

// singleEdgePlan builds the edge-by-edge alternative of a seeded plan,
// or nil when the single-edge fragments cannot cover the network.
func (o *Optimizer) singleEdgePlan(t *cn.TSSNetwork, filters []map[int64]bool, seed int) *Plan {
	var singles []decomp.Fragment
	for _, f := range o.Fragments {
		if f.Size() == 1 {
			singles = append(singles, f)
		}
	}
	if len(singles) == 0 || t.Size() == 0 {
		return nil
	}
	pieces, ok := decomp.Cover(o.TSS, t, singles, -1)
	if !ok {
		return nil
	}
	keyed := make([]bool, len(filters))
	for i, f := range filters {
		keyed[i] = f != nil
	}
	steps, err := o.buildSteps(t, keyed, seed, pieces)
	if err != nil {
		return nil
	}
	return newPlan(t, steps, len(pieces)-1, filters)
}

func (o *Optimizer) plan(t *cn.TSSNetwork, seed int) (*Plan, error) {
	sh, err := o.Compile(t)
	if err != nil {
		return nil, err
	}
	plan, err := o.bind(sh, t, o.filters(t, TOSets{}), seed)
	if err != nil || !o.CostBased || t.Size() == 0 {
		return plan, err
	}
	// Cost-based choice (§4, challenge (a)): also consider the
	// single-edge cover — under heavy run-time restrictions (the
	// presentation module's focused queries) probing small relations
	// edge-by-edge often beats fewer probes on wide relations.
	if alt := o.singleEdgePlan(t, plan.Filters, plan.Steps[0].Occ); alt != nil && o.estimateCost(alt) < o.estimateCost(plan) {
		return alt, nil
	}
	return plan, nil
}

// buildSteps orders the cover's pieces into a nested-loop pipeline
// seeded at occurrence seed. keyed marks the keyword-constrained
// occurrences — all the ordering needs to know about the filters.
func (o *Optimizer) buildSteps(t *cn.TSSNetwork, keyed []bool, seed int, pieces []decomp.Piece) ([]Step, error) {
	steps := []Step{{Seed: true, Occ: seed}}
	bound := map[int]bool{seed: true}
	remaining := append([]decomp.Piece(nil), pieces...)
	for len(remaining) > 0 {
		// Pick the cheapest runnable piece: one sharing a bound
		// occurrence, preferring pieces that bind keyword-constrained
		// occurrences (selective) and lower estimated fanout.
		bestIdx, bestCost := -1, 0.0
		for i, p := range remaining {
			probe := -1
			for pos, occ := range p.Occs {
				if bound[occ] {
					probe = pos
					break
				}
			}
			if probe < 0 {
				continue
			}
			cost := o.pieceCost(p, probe, bound, keyed)
			if bestIdx < 0 || cost < bestCost {
				bestIdx, bestCost = i, cost
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("optimizer: cover of %s is not connected", t)
		}
		p := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		step := Step{Piece: p, ProbePos: -1}
		for pos, occ := range p.Occs {
			switch {
			case bound[occ] && step.ProbePos < 0:
				step.ProbePos = pos
			case bound[occ]:
				step.CheckPos = append(step.CheckPos, pos)
			default:
				step.NewPos = append(step.NewPos, pos)
				bound[occ] = true
			}
		}
		// Prefer a probe column the relation can serve from an index or
		// a clustered copy.
		step.Rel = o.Store.Relation(p.Frag.RelationName())
		step.ProbePos = bestProbe(step.Rel, append([]int{step.ProbePos}, step.CheckPos...))
		step.CheckPos = nil
		for pos, occ := range p.Occs {
			if pos != step.ProbePos && bound[occ] && !contains(step.NewPos, pos) {
				step.CheckPos = append(step.CheckPos, pos)
			}
		}
		if step.Rel != nil {
			step.Probe = step.Rel.Access(step.ProbePos)
			for _, pos := range step.NewPos {
				if a := step.Rel.Access(step.ProbePos, pos); a.Path() == relstore.PathClustered {
					step.Push = append(step.Push, Pushdown{Pos: pos, Access: a})
				}
			}
		}
		steps = append(steps, step)
	}
	return steps, nil
}

// cacheProfitable reports whether stepping away from occurrence occ
// along some incident network edge is a to-one traversal: many seed
// bindings then share the same neighbor, so the nested loop re-sends the
// same inner queries and the lookup cache pays off (§6).
func (o *Optimizer) cacheProfitable(t *cn.TSSNetwork, occ int) bool {
	for _, e := range t.Edges {
		if e.From == occ {
			// Traversing forward: to-one unless the edge fans out.
			if !o.TSS.Edge(e.EdgeID).ForwardMany {
				return true
			}
		}
		if e.To == occ {
			// Traversing backward: to-one unless many sources share us.
			if !o.TSS.Edge(e.EdgeID).BackwardMany {
				return true
			}
		}
	}
	return false
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// bestProbe picks, among the bound positions, one the relation serves
// cheaply: clustered first, then hash-indexed, then any.
func bestProbe(rel *relstore.Relation, boundPos []int) int {
	if rel == nil {
		return boundPos[0]
	}
	for _, pos := range boundPos {
		if _, ok := rel.ClusteredOn([]int{pos}); ok {
			return pos
		}
	}
	for _, pos := range boundPos {
		if rel.HasHashIndex(pos) {
			return pos
		}
	}
	return boundPos[0]
}

// pieceCost estimates the fanout of extending the binding through p from
// probe position probe: the product of per-step fanouts, discounted when
// a newly bound occurrence is keyword-constrained.
func (o *Optimizer) pieceCost(p decomp.Piece, probe int, bound map[int]bool, keyed []bool) float64 {
	steps := p.Frag.Steps()
	cost := 1.0
	// Walk outward from the probe position in both directions.
	for pos := probe; pos+1 < len(p.Occs); pos++ {
		cost *= o.stepFanout(steps[pos], true)
		cost *= selectivity(p.Occs[pos+1], bound, keyed)
	}
	for pos := probe; pos-1 >= 0; pos-- {
		cost *= o.stepFanout(steps[pos-1], false)
		cost *= selectivity(p.Occs[pos-1], bound, keyed)
	}
	return cost
}

func (o *Optimizer) stepFanout(s decomp.Step, along bool) float64 {
	if o.Stats == nil {
		return 2
	}
	forward := (s.Dir == decomp.Fwd) == along
	f := o.Stats.Fanout(s.EdgeID, forward)
	if f <= 0 {
		return 0.1
	}
	return f
}

func selectivity(occ int, bound map[int]bool, keyed []bool) float64 {
	if bound[occ] {
		return 1 // equality check, not an expansion
	}
	if keyed[occ] {
		return 0.05 // keyword filters are selective
	}
	return 1
}

// filters computes, per occurrence, the intersection of the TO sets of
// its keyword constraints (nil for free occurrences), reading each
// (keyword, schema node) set from the index once per sets. A
// single-keyword occurrence shares the memoized set; an occurrence
// carrying several keywords gets a fresh intersection, so memoized sets
// are never modified. An empty intersection means the network has no
// results.
func (o *Optimizer) filters(t *cn.TSSNetwork, sets TOSets) []map[int64]bool {
	out := make([]map[int64]bool, len(t.Occs))
	for i, occ := range t.Occs {
		if occ.Free() {
			continue
		}
		var set map[int64]bool
		for ki, ka := range occ.Keywords {
			s, ok := sets[ka]
			if !ok {
				if s = o.Index.TOSet(ka.Keyword, ka.SchemaNode); s == nil {
					s = map[int64]bool{} // keyword-constrained, matches nothing
				}
				sets[ka] = s
			}
			if ki == 0 {
				set = s
				continue
			}
			both := make(map[int64]bool)
			for to := range set {
				if s[to] {
					both[to] = true
				}
			}
			set = both
		}
		out[i] = set
	}
	return out
}

// SortedFilter returns the filter set of occurrence occ as an ascending
// slice, for deterministic iteration. For the seed and for filters of at
// most PushdownMaxSet TOs it is the plan's own precomputed slice and
// must not be modified.
func (p *Plan) SortedFilter(occ int) []int64 {
	if s := p.sorted[occ]; s != nil {
		return s
	}
	return SortedSet(p.Filters[occ])
}

// SortedSet renders a TO set as an ascending slice (never nil).
func SortedSet(set map[int64]bool) []int64 {
	out := make([]int64, 0, len(set))
	for to := range set {
		out = append(out, to)
	}
	slices.Sort(out)
	return out
}
