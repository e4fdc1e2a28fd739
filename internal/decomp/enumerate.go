package decomp

import (
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
// networks are deduplicated under isomorphism.
func EnumerateShapes(tg *tss.Graph, maxSize int) []*cn.TSSNetwork {
	// Each shape's canonical string is computed once, when the shape is
	// first seen, and reused as the final sort key.
	type keyed struct {
		t   *cn.TSSNetwork
		key string
	}
	seen := make(map[string]bool)
	var out, queue []keyed
	for _, seg := range tg.Segments() {
		t := &cn.TSSNetwork{Occs: []cn.TSSOcc{{Segment: seg}}}
		if k := t.Canon(); !seen[k] {
			seen[k] = true
			queue = append(queue, keyed{t, k})
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		t := cur.t
		if t.Size() >= 1 {
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
				nt := &cn.TSSNetwork{
					Occs:  append(append([]cn.TSSOcc(nil), t.Occs...), cn.TSSOcc{Segment: other}),
					Edges: append(append([]cn.TSSEdgeRef(nil), t.Edges...), cn.TSSEdgeRef{}),
				}
				ni := len(nt.Occs) - 1
				if dir == Fwd {
					nt.Edges[len(nt.Edges)-1] = cn.TSSEdgeRef{From: v, To: ni, EdgeID: id}
				} else {
					nt.Edges[len(nt.Edges)-1] = cn.TSSEdgeRef{From: ni, To: v, EdgeID: id}
				}
				if !shapeAdmissible(tg, nt, v) {
					return
				}
				if k := nt.Canon(); !seen[k] {
					seen[k] = true
					queue = append(queue, keyed{nt, k})
				}
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
// occurrence v after an edge incident to v was added.
func shapeAdmissible(tg *tss.Graph, t *cn.TSSNetwork, v int) bool {
	var in, out []cn.TSSEdgeRef
	for _, e := range t.Edges {
		if e.To == v {
			in = append(in, e)
		}
		if e.From == v {
			out = append(out, e)
		}
	}
	// Two reference-free incoming edges: the occurrence's containment
	// ancestry is unique (useless rule 2 at shape level).
	nNoRef := 0
	for _, e := range in {
		if !tg.Edge(e.EdgeID).BackwardMany {
			nNoRef++
		}
	}
	if nNoRef > 1 {
		return false
	}
	// Outgoing edges sharing a to-one choice prefix, or one to-one edge
	// used twice (useless rule 1 at shape level).
	prefixes := make(map[string]int)
	perEdge := make(map[int]int)
	for _, e := range out {
		te := tg.Edge(e.EdgeID)
		if te.ChoicePrefix != "" {
			prefixes[te.ChoicePrefix]++
		}
		perEdge[e.EdgeID]++
	}
	for _, c := range prefixes {
		if c > 1 {
			return false
		}
	}
	for id, c := range perEdge {
		if c > 1 && !tg.Edge(id).ForwardMany {
			return false
		}
	}
	return true
}
