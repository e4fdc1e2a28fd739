package decomp

import (
	"fmt"
	"sort"

	"repro/internal/cn"
	"repro/internal/tss"
)

// The Figure 12 search does not cover networks through a Coverer. Shapes
// are trees, so the simple paths of a shape are exactly its occurrence
// pairs (at most 21 at M = 6); each shape is laid out once as a list of
// paths, each path a walk id and an edge mask. A fragment set is then a
// set of walk ids, and "coverable with at most B+1 connected pieces" is a
// set cover over at most 21 edge masks. Adding a fragment can only change
// the shapes holding one of its walks, so each walk indexes the shapes
// that contain it.

// shapePath is one simple path of a laid-out shape.
type shapePath struct {
	walk  int32  // index into searcher.walks
	keyed bool   // the walk fits a walk key, so a fragment can cover it
	edges uint32 // shape edges on the path
}

type shapeLayout struct {
	net   *cn.TSSNetwork
	full  uint32 // every edge of the shape
	paths []shapePath
}

// walk is one distinct fragment walk met on some shape path.
type walk struct {
	steps  []Step   // one orientation, as first laid out
	frag   Fragment // built on first use as a candidate
	shapes []int32  // laid-out shapes holding the walk, ascending
}

type searcher struct {
	tg        *tss.Graph
	maxPieces int
	shapes    []shapeLayout
	walks     []walk
	ids       map[uint64]int32 // canonical walk key -> walk id
	long      map[string]int32 // fragment key -> walk id, walks past maxKeyedSteps
	has       []bool           // walk ids in the decomposition
	queued    []bool           // shapes not yet covered

	// Scratch: the usable pieces of the shape under test, and the
	// adjacency and walk of the shape being laid out.
	pieces []uint32
	adj    [][]layoutHop
	steps  []Step
}

type layoutHop struct {
	to, edge int
	step     Step
}

// newSearcher lays out the shapes and indexes their walks.
func newSearcher(tg *tss.Graph, shapes []*cn.TSSNetwork, maxJoins int) *searcher {
	s := &searcher{
		tg:        tg,
		maxPieces: maxJoins + 1,
		shapes:    make([]shapeLayout, len(shapes)),
		ids:       make(map[uint64]int32),
		long:      make(map[string]int32),
		queued:    make([]bool, len(shapes)),
	}
	for i, t := range shapes {
		s.layout(int32(i), t)
	}
	s.has = make([]bool, len(s.walks))
	return s
}

// layout records every occurrence pair of shape si as a path.
func (s *searcher) layout(si int32, t *cn.TSSNetwork) {
	n := len(t.Occs)
	for len(s.adj) < n {
		s.adj = append(s.adj, nil)
	}
	adj := s.adj[:n]
	for v := range adj {
		adj[v] = adj[v][:0]
	}
	for ei, e := range t.Edges {
		adj[e.From] = append(adj[e.From], layoutHop{to: e.To, edge: ei, step: Step{EdgeID: e.EdgeID, Dir: Fwd}})
		adj[e.To] = append(adj[e.To], layoutHop{to: e.From, edge: ei, step: Step{EdgeID: e.EdgeID, Dir: Bwd}})
	}
	sh := &s.shapes[si]
	sh.net = t
	sh.full = uint32(1)<<len(t.Edges) - 1
	sh.paths = make([]shapePath, 0, n*(n-1)/2)
	for a := 0; a < n; a++ {
		s.walkFrom(si, a, a, -1, 0, 0, 0)
	}
}

// walkFrom extends the path from occurrence `from` that has reached v
// (coming from parent) and records it when it ends at a later
// occurrence, so each pair is laid out once. key and rkey are the walk
// keys of the path read forward and backward, while it fits
// maxKeyedSteps.
func (s *searcher) walkFrom(si int32, from, v, parent int, key, rkey uint64, edges uint32) {
	depth := len(s.steps)
	if v > from {
		s.addPath(si, key, rkey, edges)
	}
	for _, h := range s.adj[v] {
		if h.to == parent {
			continue
		}
		s.steps = append(s.steps, h.step)
		nk, nr := key, rkey
		if depth < maxKeyedSteps {
			back := Step{EdgeID: h.step.EdgeID, Dir: h.step.Dir.flip()}
			nk = key<<7 | stepCode(h.step)
			nr = rkey | stepCode(back)<<(7*uint(depth))
		}
		s.walkFrom(si, from, h.to, v, nk, nr, edges|1<<uint(h.edge))
		s.steps = s.steps[:depth]
	}
}

// addPath records the walk in s.steps as a path of shape si, interning
// its walk id: by walk key, or by fragment key past maxKeyedSteps.
func (s *searcher) addPath(si int32, key, rkey uint64, edges uint32) {
	keyed := len(s.steps) <= maxKeyedSteps
	var id int32
	var ok bool
	var long Fragment
	if keyed {
		id, ok = s.ids[min(key, rkey)]
	} else {
		long = MustFragment(s.tg, s.steps...)
		id, ok = s.long[long.Key()]
	}
	if !ok {
		id = int32(len(s.walks))
		s.walks = append(s.walks, walk{steps: append([]Step(nil), s.steps...)})
		if keyed {
			s.ids[min(key, rkey)] = id
		} else {
			s.long[long.Key()] = id
		}
	}
	w := &s.walks[id]
	if k := len(w.shapes); k == 0 || w.shapes[k-1] != si {
		w.shapes = append(w.shapes, si)
	}
	sh := &s.shapes[si]
	sh.paths = append(sh.paths, shapePath{walk: id, keyed: keyed, edges: edges})
}

func (w *walk) fragment(tg *tss.Graph) Fragment {
	if w.frag.key == "" {
		w.frag = MustFragment(tg, w.steps...)
	}
	return w.frag
}

// mark records a fragment of the decomposition; fragments whose walk
// lies on no shape path cannot cover anything and are skipped.
func (s *searcher) mark(f Fragment) {
	if k, ok := walkKey(f.steps); ok {
		rk, _ := walkKey(f.reversedSteps())
		if id, ok := s.ids[min(k, rk)]; ok {
			s.has[id] = true
		}
	} else if id, ok := s.long[f.Key()]; ok {
		s.has[id] = true
	}
}

// add puts walk id into the decomposition.
func (s *searcher) add(d *Decomposition, id int32) {
	if !s.has[id] {
		s.has[id] = true
		d.Fragments = append(d.Fragments, s.walks[id].fragment(s.tg))
	}
}

// covers reports whether at most maxPieces pieces drawn from the
// decomposition cover every edge of the shape. Cover also asks that each
// piece after the first share an occurrence with those before it, but a
// set of paths covering every edge of a tree can always be ordered so:
// an edge between two groups of pieces with no occurrence in common would
// lie on some piece meeting both. So the check is a set cover over edge
// masks, searched by branching on the pieces that hold the lowest
// uncovered edge — every cover holds one of them.
func (s *searcher) covers(sh *shapeLayout) bool {
	if len(sh.net.Edges) > maxCoverEdges {
		return false
	}
	pe := s.pieces[:0]
	var union uint32
	for _, p := range sh.paths {
		if p.keyed && s.has[p.walk] {
			pe = append(pe, p.edges)
			union |= p.edges
		}
	}
	s.pieces = pe
	return union == sh.full && coverable(pe, sh.full, s.maxPieces)
}

// coverable reports whether at most k of the masks cover need.
func coverable(masks []uint32, need uint32, k int) bool {
	if need == 0 {
		return true
	}
	if k == 0 {
		return false
	}
	low := need & -need
	for _, m := range masks {
		if m&low != 0 && coverable(masks, need&^m, k-1) {
			return true
		}
	}
	return false
}

// gain counts the queued shapes that adding walk id to the decomposition
// would cover, stopping at limit.
func (s *searcher) gain(id int32, limit int) int {
	if s.has[id] {
		return 0
	}
	s.has[id] = true
	g := 0
	for _, si := range s.walks[id].shapes {
		if s.queued[si] && s.covers(&s.shapes[si]) {
			if g++; g == limit {
				break
			}
		}
	}
	s.has[id] = false
	return g
}

// uncovered returns the shapes of q the decomposition does not cover and
// updates the queued marks.
func (s *searcher) uncovered(q []int32) []int32 {
	var nq []int32
	for _, si := range q {
		s.queued[si] = !s.covers(&s.shapes[si])
		if s.queued[si] {
			nq = append(nq, si)
		}
	}
	return nq
}

// candidates returns the distinct walks of the given size on the queued
// shapes whose fragments are not useless and have an MVD iff wantMVD,
// sorted by fragment key: any other fragment cannot appear in them.
func (s *searcher) candidates(q []int32, size int, wantMVD bool) []int32 {
	seen := make(map[int32]bool)
	var out []int32
	for _, si := range q {
		for _, p := range s.shapes[si].paths {
			w := &s.walks[p.walk]
			if len(w.steps) != size || seen[p.walk] {
				continue
			}
			seen[p.walk] = true
			if f := w.fragment(s.tg); !f.IsUseless(s.tg) && f.HasMVD(s.tg) == wantMVD {
				out = append(out, p.walk)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return s.walks[out[i]].frag.key < s.walks[out[j]].frag.key })
	return out
}

// search runs steps 2-4 of Figure 12 over the shapes, extending d.
func (s *searcher) search(d *Decomposition, m, l int) error {
	for _, f := range d.Fragments {
		s.mark(f)
	}
	q := make([]int32, len(s.shapes))
	for i := range q {
		q[i] = int32(i)
	}
	q = s.uncovered(q)

	// Step 3: larger non-MVD fragments that help. The queue is rechecked
	// only when a size round ends, so once one candidate covers a queued
	// shape, every later candidate of the round counts as helping too.
	for size := l + 1; size <= m && len(q) > 0; size++ {
		helped := false
		for _, id := range s.candidates(q, size, false) {
			if !helped {
				helped = s.gain(id, 1) > 0
			}
			if helped {
				s.add(d, id)
			}
		}
		q = s.uncovered(q)
	}

	// Step 4: greedy minimum MVD fragments of size ≤ L.
	if len(q) == 0 {
		return nil
	}
	var mvds []int32
	for n := 2; n <= l; n++ {
		mvds = append(mvds, s.candidates(q, n, true)...)
	}
	for len(q) > 0 {
		bestGain, best := 0, int32(-1)
		for _, id := range mvds {
			if g := s.gain(id, len(q)); g > bestGain {
				bestGain, best = g, id
			}
		}
		if best < 0 {
			return fmt.Errorf("decomp: %d CTSSN shapes cannot be covered with B=%d joins (first: %s)",
				len(q), s.maxPieces-1, s.shapes[q[0]].net)
		}
		s.add(d, best)
		q = s.uncovered(q)
	}
	return nil
}
