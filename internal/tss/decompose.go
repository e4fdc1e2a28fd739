package tss

import (
	"fmt"
	"sort"

	"repro/internal/schema"
	"repro/internal/xmlgraph"
)

// TargetObject is one target object instance: the piece of XML data a
// segment designates, identified by the id of its head node.
type TargetObject struct {
	ID      int64 // head node id, used as TO id throughout the system
	Segment string
	Nodes   []xmlgraph.NodeID // member nodes, head first
	ord     int               // position in ObjectGraph.Objects
}

// ObjectEdge connects two target objects through one TSS edge instance.
type ObjectEdge struct {
	From, To int64
	EdgeID   int // index into Graph.Edges()
}

// ObjectGraph is the representation of the XML graph in terms of target
// objects (paper §5): nodes are target objects, edges are instances of
// TSS edges. Connection relations are populated from it.
type ObjectGraph struct {
	TSS    *Graph
	Data   *xmlgraph.Graph
	tos    map[int64]*TargetObject
	order  []int64
	nodeTO map[xmlgraph.NodeID]int64
	out    map[int64][]ObjectEdge
	in     map[int64][]ObjectEdge
	bySeg  map[string][]int64
}

// Decompose computes the target decomposition of a typed data graph: it
// groups XML nodes into target objects and materializes the TSS-edge
// instances connecting them (contracting dummy nodes).
func (g *Graph) Decompose(data *xmlgraph.Graph) (*ObjectGraph, error) {
	og := &ObjectGraph{
		TSS:    g,
		Data:   data,
		tos:    make(map[int64]*TargetObject),
		nodeTO: make(map[xmlgraph.NodeID]int64),
		out:    make(map[int64][]ObjectEdge),
		in:     make(map[int64][]ObjectEdge),
		bySeg:  make(map[string][]int64),
	}
	// Pass 1: create a TO for every head node.
	for _, id := range data.Nodes() {
		n := data.Node(id)
		if n.Type == "" {
			return nil, fmt.Errorf("tss: node %d has no schema type; run schema.Assign first", id)
		}
		if seg, ok := g.headOf[n.Type]; ok {
			to := &TargetObject{ID: int64(id), Segment: seg, Nodes: []xmlgraph.NodeID{id}, ord: len(og.order)}
			og.tos[to.ID] = to
			og.order = append(og.order, to.ID)
			og.nodeTO[id] = to.ID
			og.bySeg[seg] = append(og.bySeg[seg], to.ID)
		}
	}
	// Pass 2: attach non-head members to the TO of their nearest
	// containment ancestor that is the segment head.
	for _, id := range data.Nodes() {
		n := data.Node(id)
		seg := g.bySchema[n.Type]
		if seg == "" || g.segments[seg].Head == n.Type {
			continue
		}
		cur := id
		for {
			p, ok := data.ContainmentParent(cur)
			if !ok {
				return nil, fmt.Errorf("tss: member node %d (%s) has no %s-head ancestor", id, n.Type, seg)
			}
			if toID, isTO := og.nodeTO[p]; isTO && og.tos[toID].Segment == seg {
				og.tos[toID].Nodes = append(og.tos[toID].Nodes, id)
				og.nodeTO[id] = toID
				break
			}
			cur = p
		}
	}
	// Pass 3: materialize TSS edge instances by matching each edge's
	// schema path against the data graph.
	seen := make(map[[3]int64]bool)
	for _, e := range g.edges {
		start := e.SchemaPath[0].From
		for _, id := range data.Nodes() {
			if data.Node(id).Type != start {
				continue
			}
			for _, end := range og.matchPath(id, e.SchemaPath) {
				fromTO, ok1 := og.nodeTO[id]
				toTO, ok2 := og.nodeTO[end]
				if !ok1 || !ok2 {
					continue
				}
				key := [3]int64{fromTO, toTO, int64(e.ID)}
				if seen[key] {
					continue
				}
				seen[key] = true
				oe := ObjectEdge{From: fromTO, To: toTO, EdgeID: e.ID}
				og.out[fromTO] = append(og.out[fromTO], oe)
				og.in[toTO] = append(og.in[toTO], oe)
			}
		}
	}
	return og, nil
}

// matchPath returns the ids of all data nodes reachable from start by a
// data path matching the schema path (edge kinds and node types).
func (og *ObjectGraph) matchPath(start xmlgraph.NodeID, path []schema.Edge) []xmlgraph.NodeID {
	frontier := []xmlgraph.NodeID{start}
	for _, se := range path {
		var next []xmlgraph.NodeID
		for _, id := range frontier {
			for _, de := range og.Data.Out(id) {
				if de.Kind == se.Kind && og.Data.Node(de.To).Type == se.To {
					next = append(next, de.To)
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			return nil
		}
	}
	return frontier
}

// TO returns the target object with the given id, or nil.
func (og *ObjectGraph) TO(id int64) *TargetObject { return og.tos[id] }

// TOOf returns the target object containing data node id, if any (dummy
// nodes belong to no target object).
func (og *ObjectGraph) TOOf(id xmlgraph.NodeID) (int64, bool) {
	to, ok := og.nodeTO[id]
	return to, ok
}

// NumObjects returns the number of target objects.
func (og *ObjectGraph) NumObjects() int { return len(og.tos) }

// Objects returns all TO ids in creation order.
func (og *ObjectGraph) Objects() []int64 {
	out := make([]int64, len(og.order))
	copy(out, og.order)
	return out
}

// Ordinal returns the position of target object id in Objects, so
// per-object state can live in a dense slice of NumObjects entries.
func (og *ObjectGraph) Ordinal(id int64) (int, bool) {
	to := og.tos[id]
	if to == nil {
		return 0, false
	}
	return to.ord, true
}

// BySegment returns the TO ids of a segment, sorted ascending.
func (og *ObjectGraph) BySegment(seg string) []int64 {
	ids := append([]int64(nil), og.bySeg[seg]...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Out returns the object edges leaving to.
func (og *ObjectGraph) Out(to int64) []ObjectEdge { return og.out[to] }

// In returns the object edges entering to.
func (og *ObjectGraph) In(to int64) []ObjectEdge { return og.in[to] }

// NumEdges returns the number of object edges.
func (og *ObjectGraph) NumEdges() int {
	n := 0
	for _, es := range og.out {
		n += len(es)
	}
	return n
}

// Neighbors returns all object edges incident to id (both directions).
func (og *ObjectGraph) Neighbors(id int64) []ObjectEdge {
	out := append([]ObjectEdge(nil), og.out[id]...)
	return append(out, og.in[id]...)
}
