package cn

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tss"
)

// KeywordAt records that a TSS occurrence must contain a keyword on a
// specific schema node (the T_{k,S} notation of §4).
type KeywordAt struct {
	Keyword    string
	SchemaNode string
}

// TSSOcc is one occurrence of a target schema segment in a CTSSN.
type TSSOcc struct {
	Segment  string
	Keywords []KeywordAt // sorted by (Keyword, SchemaNode); empty = free
}

// Free reports whether the occurrence has no keyword constraint.
func (o TSSOcc) Free() bool { return len(o.Keywords) == 0 }

func (o TSSOcc) label() string {
	if o.Free() {
		return o.Segment
	}
	var sb strings.Builder
	sb.WriteString(o.Segment)
	sb.WriteByte('{')
	for i, k := range o.Keywords {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k.Keyword)
		sb.WriteByte('@')
		sb.WriteString(k.SchemaNode)
	}
	sb.WriteByte('}')
	return sb.String()
}

// TSSEdgeRef connects two TSS occurrences through a TSS graph edge.
type TSSEdgeRef struct {
	From, To int
	EdgeID   int // index into the TSS graph's edges
}

// TSSNetwork is a candidate TSS network (CTSSN): the reduction of a
// candidate network onto the TSS graph, which is what the optimizer
// covers with connection relations and the executor evaluates.
type TSSNetwork struct {
	Occs  []TSSOcc
	Edges []TSSEdgeRef
	// CN is the originating candidate network; its size (in schema
	// edges) is the score of every MTNN/MTTON the CTSSN produces.
	CN *Network
}

// Size returns the number of TSS edges.
func (t *TSSNetwork) Size() int { return len(t.Edges) }

// Score returns the schema-edge size of the originating CN — the score
// MTTONs of this network carry.
func (t *TSSNetwork) Score() int {
	if t.CN == nil {
		return t.Size()
	}
	return t.CN.Size()
}

// Canon returns a canonical string for isomorphism grouping: the
// smallest, over every choice of root, of the rooted rendering
// label(>|<edgeID child ...) with children sorted.
func (t *TSSNetwork) Canon() string {
	adj := make([][]TSSEdgeRef, len(t.Occs))
	for _, e := range t.Edges {
		adj[e.From] = append(adj[e.From], e)
		adj[e.To] = append(adj[e.To], e)
	}
	labels := make([]string, len(t.Occs))
	for i, o := range t.Occs {
		labels[i] = o.label()
	}
	var canonFrom func(v, parent int) string
	canonFrom = func(v, parent int) string {
		var subs []string
		for _, e := range adj[v] {
			other, dir := e.To, ">"
			if e.To == v {
				other, dir = e.From, "<"
			}
			if other == parent {
				continue
			}
			subs = append(subs, dir+strconv.Itoa(e.EdgeID)+canonFrom(other, v))
		}
		sort.Strings(subs)
		var sb strings.Builder
		sb.WriteString(labels[v])
		sb.WriteByte('(')
		for i, s := range subs {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(s)
		}
		sb.WriteByte(')')
		return sb.String()
	}
	best := ""
	for r := range t.Occs {
		if s := canonFrom(r, -1); best == "" || s < best {
			best = s
		}
	}
	return best
}

// String renders the CTSSN for diagnostics.
func (t *TSSNetwork) String() string {
	if len(t.Occs) == 0 {
		return "(empty)"
	}
	var parts []string
	for _, o := range t.Occs {
		parts = append(parts, o.label())
	}
	var es []string
	for _, e := range t.Edges {
		es = append(es, fmt.Sprintf("%d-%d(e%d)", e.From, e.To, e.EdgeID))
	}
	return strings.Join(parts, " ") + " / " + strings.Join(es, " ")
}

// Reduce maps a candidate network onto the TSS graph (§4): occurrences
// in the same segment connected by intra-segment edges merge into one
// TSS occurrence; dummy occurrences are contracted into the TSS edges
// whose schema paths they instantiate.
func Reduce(tg *tss.Graph, net *Network) (*TSSNetwork, error) {
	n := len(net.Occs)
	segOf := make([]string, n)
	for i, o := range net.Occs {
		segOf[i] = tg.SegmentOf(o.Schema)
		if segOf[i] == "" && !o.Free() {
			return nil, fmt.Errorf("cn: dummy occurrence %s carries keywords", o.Schema)
		}
	}
	// Union-find over occurrences; merge intra-segment edges.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, e := range net.Edges {
		if segOf[e.From] != "" && segOf[e.From] == segOf[e.To] {
			parent[find(e.From)] = find(e.To)
		}
	}
	// Create TSS occurrences per non-dummy group.
	groupIdx := make(map[int]int)
	out := &TSSNetwork{CN: net}
	for i := 0; i < n; i++ {
		if segOf[i] == "" {
			continue
		}
		r := find(i)
		if _, ok := groupIdx[r]; !ok {
			groupIdx[r] = len(out.Occs)
			out.Occs = append(out.Occs, TSSOcc{Segment: segOf[r]})
		}
		gi := groupIdx[r]
		for _, k := range net.Occs[i].Keywords {
			out.Occs[gi].Keywords = append(out.Occs[gi].Keywords, KeywordAt{Keyword: k, SchemaNode: net.Occs[i].Schema})
		}
	}
	for gi := range out.Occs {
		ks := out.Occs[gi].Keywords
		sort.Slice(ks, func(a, b int) bool {
			if ks[a].Keyword != ks[b].Keyword {
				return ks[a].Keyword < ks[b].Keyword
			}
			return ks[a].SchemaNode < ks[b].SchemaNode
		})
	}
	// Contract dummy chains into TSS edges. Walk from every non-dummy
	// occurrence along edges whose far side is a dummy (or directly
	// another segment), accumulating the schema path.
	adj := net.adjacency()
	seenEdge := make(map[[2]int]bool) // (minOcc,maxOcc) per CN edge consumed in a chain
	edgeKey := func(e Edge) [2]int {
		if e.From < e.To {
			return [2]int{e.From, e.To}
		}
		return [2]int{e.To, e.From}
	}
	for i := 0; i < n; i++ {
		if segOf[i] == "" {
			continue
		}
		for _, e := range adj[i] {
			other := e.From + e.To - i
			if segOf[other] == segOf[i] && segOf[other] != "" {
				continue // intra-segment, already merged
			}
			if seenEdge[edgeKey(e)] {
				continue
			}
			// Walk through dummies. Each step must keep one consistent
			// orientation (all edges forward from one end), since TSS
			// edges are forward schema paths.
			var chainOccs []int // occurrence sequence i, d1, ..., dk, j
			var chainEdges []Edge
			cur, prev := other, i
			chainOccs = append(chainOccs, i)
			chainEdges = append(chainEdges, e)
			for segOf[cur] == "" {
				chainOccs = append(chainOccs, cur)
				var next *Edge
				for _, e2 := range adj[cur] {
					o2 := e2.From + e2.To - cur
					if o2 == prev {
						continue
					}
					if next != nil {
						return nil, fmt.Errorf("cn: dummy occurrence %s branches; cannot map to a TSS edge", net.Occs[cur].Schema)
					}
					cp := e2
					next = &cp
				}
				if next == nil {
					return nil, fmt.Errorf("cn: dummy occurrence %s dead-ends", net.Occs[cur].Schema)
				}
				chainEdges = append(chainEdges, *next)
				prev, cur = cur, next.From+next.To-cur
			}
			chainOccs = append(chainOccs, cur)
			for _, ce := range chainEdges {
				seenEdge[edgeKey(ce)] = true
			}
			// Orientation: forward if every edge points along the walk
			// i -> cur; backward if every edge points against it.
			fwd, bwd := true, true
			for k, ce := range chainEdges {
				a, b := chainOccs[k], chainOccs[k+1]
				if ce.From == a && ce.To == b {
					bwd = false
				} else {
					fwd = false
				}
			}
			var fromOcc, toOcc int
			var pathOccs []int
			var pathEdges []Edge
			switch {
			case fwd:
				fromOcc, toOcc = i, cur
				pathOccs = chainOccs
				pathEdges = chainEdges
			case bwd:
				fromOcc, toOcc = cur, i
				pathOccs = reversed(chainOccs)
				pathEdges = reversedEdges(chainEdges)
			default:
				return nil, fmt.Errorf("cn: mixed-direction dummy chain between %s and %s", net.Occs[i].Schema, net.Occs[cur].Schema)
			}
			eid, err := matchTSSEdge(tg, net, segOf, pathOccs, pathEdges, fromOcc, toOcc)
			if err != nil {
				return nil, err
			}
			out.Edges = append(out.Edges, TSSEdgeRef{
				From:   groupIdx[find(fromOcc)],
				To:     groupIdx[find(toOcc)],
				EdgeID: eid,
			})
		}
	}
	sort.Slice(out.Edges, func(a, b int) bool {
		ea, eb := out.Edges[a], out.Edges[b]
		if ea.From != eb.From {
			return ea.From < eb.From
		}
		if ea.To != eb.To {
			return ea.To < eb.To
		}
		return ea.EdgeID < eb.EdgeID
	})
	if len(out.Edges) != len(out.Occs)-1 {
		return nil, fmt.Errorf("cn: reduction produced %d edges for %d TSS occurrences", len(out.Edges), len(out.Occs))
	}
	return out, nil
}

// matchTSSEdge finds the TSS edge whose schema path equals the chain's
// forward-oriented schema node and edge-kind sequence.
func matchTSSEdge(tg *tss.Graph, net *Network, segOf []string, pathOccs []int, pathEdges []Edge, fromOcc, toOcc int) (int, error) {
	fromSeg, toSeg := segOf[fromOcc], segOf[toOcc]
	for _, te := range tg.Edges() {
		if te.From != fromSeg || te.To != toSeg {
			continue
		}
		if len(te.SchemaPath) != len(pathOccs)-1 {
			continue
		}
		ok := te.SchemaPath[0].From == net.Occs[pathOccs[0]].Schema
		for k, se := range te.SchemaPath {
			if !ok {
				break
			}
			if se.To != net.Occs[pathOccs[k+1]].Schema || se.Kind != pathEdges[k].Kind {
				ok = false
			}
		}
		if ok {
			return te.ID, nil
		}
	}
	return 0, fmt.Errorf("cn: no TSS edge matches chain %s -> %s", net.Occs[fromOcc].Schema, net.Occs[toOcc].Schema)
}

func reversed(xs []int) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}

func reversedEdges(es []Edge) []Edge {
	out := make([]Edge, len(es))
	for i, e := range es {
		out[len(es)-1-i] = e
	}
	return out
}
