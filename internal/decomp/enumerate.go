package decomp

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"

	"repro/internal/cn"
	"repro/internal/tss"
)

// EnumerateFragments returns every non-useless fragment of size exactly n
// (walks over the TSS graph, deduplicated under reversal), sorted by Key.
// Set includeMVD to false to keep only 4NF/inlined fragments.
func EnumerateFragments(tg *tss.Graph, n int, includeMVD bool) []Fragment {
	if n <= 0 {
		return nil
	}
	seen := make(map[string]bool)
	var out []Fragment
	var extend func(steps []Step, at string)
	extend = func(steps []Step, at string) {
		if len(steps) == n {
			f, err := NewFragment(tg, steps)
			if err != nil {
				return
			}
			if f.IsUseless(tg) {
				return
			}
			if !includeMVD && f.HasMVD(tg) {
				return
			}
			if !seen[f.Key()] {
				seen[f.Key()] = true
				out = append(out, f)
			}
			return
		}
		for _, id := range tg.Out(at) {
			extend(append(steps, Step{EdgeID: id, Dir: Fwd}), tg.Edge(id).To)
		}
		for _, id := range tg.In(at) {
			extend(append(steps, Step{EdgeID: id, Dir: Bwd}), tg.Edge(id).From)
		}
	}
	for _, seg := range tg.Segments() {
		extend(nil, seg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// EnumerateShapes returns every structurally possible CTSSN shape with
// size (TSS edges) from 1 to maxSize: trees of segment occurrences whose
// edges instantiate TSS edges, pruned by the instance-impossibility rules
// (two reference-free parents, shared to-one choice prefixes, to-one
// edges used twice from one occurrence). Keyword annotations are ignored
// — coverage under a join budget depends only on the shape. The returned
// networks are deduplicated under isomorphism and sorted by size, then by
// Canon.
func EnumerateShapes(tg *tss.Graph, maxSize int) []*cn.TSSNetwork {
	// Extensions are deduplicated on the cheap shapeForm; each distinct
	// shape's Canon is computed once, for the final sort.
	type keyed struct {
		t   *cn.TSSNetwork
		key string
	}
	sf := newShapeFormer(tg)
	seen := make(map[string]struct{})
	var out, queue []keyed
	visit := func(t *cn.TSSNetwork) {
		form := sf.form(t)
		if _, dup := seen[string(form)]; !dup {
			seen[string(form)] = struct{}{}
			queue = append(queue, keyed{t: t})
		}
	}
	for _, seg := range tg.Segments() {
		visit(&cn.TSSNetwork{Occs: []cn.TSSOcc{{Segment: seg}}})
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		t := cur.t
		if t.Size() >= 1 {
			cur.key = t.Canon()
			out = append(out, cur)
		}
		if t.Size() >= maxSize {
			continue
		}
		for v := range t.Occs {
			seg := t.Occs[v].Segment
			attach := func(id int, dir Dir) {
				e := tg.Edge(id)
				other := e.To
				if dir == Bwd {
					other = e.From
				}
				ni := len(t.Occs)
				edge := cn.TSSEdgeRef{From: v, To: ni, EdgeID: id}
				if dir == Bwd {
					edge = cn.TSSEdgeRef{From: ni, To: v, EdgeID: id}
				}
				if !shapeAdmissible(tg, t.Edges, edge, v) {
					return
				}
				visit(&cn.TSSNetwork{
					Occs:  append(t.Occs[:ni:ni], cn.TSSOcc{Segment: other}),
					Edges: append(t.Edges[:len(t.Edges):len(t.Edges)], edge),
				})
			}
			for _, id := range tg.Out(seg) {
				attach(id, Fwd)
			}
			for _, id := range tg.In(seg) {
				attach(id, Bwd)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if si, sj := out[i].t.Size(), out[j].t.Size(); si != sj {
			return si < sj
		}
		return out[i].key < out[j].key
	})
	shapes := make([]*cn.TSSNetwork, len(out))
	for i, k := range out {
		shapes[i] = k.t
	}
	return shapes
}

// shapeAdmissible checks the instance-impossibility rules around
// occurrence v when the edge add, incident to v, joins the shape's edges.
func shapeAdmissible(tg *tss.Graph, edges []cn.TSSEdgeRef, add cn.TSSEdgeRef, v int) bool {
	ta := tg.Edge(add.EdgeID)
	for _, e := range edges {
		te := tg.Edge(e.EdgeID)
		// Two reference-free incoming edges: the occurrence's containment
		// ancestry is unique (useless rule 2 at shape level).
		if add.To == v && e.To == v && !ta.BackwardMany && !te.BackwardMany {
			return false
		}
		// Outgoing edges sharing a to-one choice prefix, or one to-one
		// edge used twice (useless rule 1 at shape level).
		if add.From == v && e.From == v {
			if ta.ChoicePrefix != "" && ta.ChoicePrefix == te.ChoicePrefix {
				return false
			}
			if add.EdgeID == e.EdgeID && !ta.ForwardMany {
				return false
			}
		}
	}
	return true
}

// shapeFormer computes an exact canonical form of free shapes: the tree
// rooted at its center (the smaller form of the two, for a bicentral
// tree), each occurrence written as the code of the edge from its parent,
// its segment index and its child count, followed by its children's forms
// in sorted order, all as uvarints. The codes are prefix-free, so
// two shapes share a form iff they are isomorphic — the grouping Canon
// gives, without rendering a string per root.
type shapeFormer struct {
	seg   map[string]uint64
	adj   [][]cn.TSSEdgeRef
	deg   []int
	arena []byte
	spans [][2]int
	best  []byte
}

func newShapeFormer(tg *tss.Graph) *shapeFormer {
	sf := &shapeFormer{seg: make(map[string]uint64)}
	for i, s := range tg.Segments() {
		sf.seg[s] = uint64(i)
	}
	return sf
}

// form returns t's canonical form; the slice is reused by the next call.
func (sf *shapeFormer) form(t *cn.TSSNetwork) []byte {
	n := len(t.Occs)
	for len(sf.adj) < n {
		sf.adj = append(sf.adj, nil)
		sf.deg = append(sf.deg, 0)
	}
	adj, deg := sf.adj[:n], sf.deg[:n]
	for v := range adj {
		adj[v] = adj[v][:0]
	}
	for _, e := range t.Edges {
		adj[e.From] = append(adj[e.From], e)
		adj[e.To] = append(adj[e.To], e)
	}
	// Strip leaves layer by layer; the last layer holds the center(s).
	var layer, next []int
	for v := range adj {
		deg[v] = len(adj[v])
		if deg[v] <= 1 {
			layer = append(layer, v)
		}
	}
	for left := n; left > 2; {
		left -= len(layer)
		next = next[:0]
		for _, v := range layer {
			for _, e := range adj[v] {
				if u := e.From + e.To - v; deg[u] > 1 {
					if deg[u]--; deg[u] == 1 {
						next = append(next, u)
					}
				}
			}
		}
		layer, next = append(layer[:0], next...), layer
	}
	sf.best = sf.best[:0]
	for i, c := range layer {
		sf.arena = sf.arena[:0]
		sp := sf.encode(t, c, -1, 0)
		if enc := sf.arena[sp[0]:sp[1]]; i == 0 || bytes.Compare(enc, sf.best) < 0 {
			sf.best = append(sf.best[:0], enc...)
		}
	}
	return sf.best
}

// encode writes the form of the subtree at v (entered from parent over
// the edge coded code, 0 at the root) to the arena and returns its span.
// Child forms are written first, then copied after v's header in sorted
// order.
func (sf *shapeFormer) encode(t *cn.TSSNetwork, v, parent int, code uint64) [2]int {
	base := len(sf.spans)
	for _, e := range sf.adj[v] {
		u, dir := e.To, uint64(Fwd)
		if e.To == v {
			u, dir = e.From, uint64(Bwd)
		}
		if u != parent {
			sf.spans = append(sf.spans, sf.encode(t, u, v, (uint64(e.EdgeID)<<1|dir)+1))
		}
	}
	kids := sf.spans[base:]
	slices.SortFunc(kids, func(a, b [2]int) int {
		return bytes.Compare(sf.arena[a[0]:a[1]], sf.arena[b[0]:b[1]])
	})
	start := len(sf.arena)
	sf.arena = binary.AppendUvarint(sf.arena, code)
	sf.arena = binary.AppendUvarint(sf.arena, sf.seg[t.Occs[v].Segment])
	sf.arena = binary.AppendUvarint(sf.arena, uint64(len(kids)))
	for _, k := range kids {
		sf.arena = append(sf.arena, sf.arena[k[0]:k[1]]...)
	}
	sf.spans = sf.spans[:base]
	return [2]int{start, len(sf.arena)}
}
