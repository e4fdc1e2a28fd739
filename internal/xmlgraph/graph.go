// Package xmlgraph implements the labeled-directed-graph abstraction of XML
// data used by XKeyword (Hristidis, Papakonstantinou, Balmin; ICDE 2003).
//
// Nodes correspond to XML elements and carry a tag (label), an optional
// string value, and a unique id. Edges are classified into containment
// edges (element/sub-element) and reference edges (IDREF-to-ID and XML
// Link). Graphs may have multiple roots: the administrator may omit an
// artificial document root, and a graph may capture several linked
// documents (paper, Definition 3.1).
package xmlgraph

import (
	"fmt"
	"sort"
)

// NodeID uniquely identifies a node in an XML graph. IDs are invented by
// the system when the underlying element has no ID attribute.
type NodeID int64

// InvalidNode is the zero NodeID; it never identifies a real node.
const InvalidNode NodeID = 0

// EdgeKind classifies graph edges per Definition 3.1.
type EdgeKind uint8

const (
	// Containment is an element/sub-element edge.
	Containment EdgeKind = iota
	// Reference is an IDREF-to-ID or cross-document XML Link edge.
	Reference
)

// String returns "containment" or "reference".
func (k EdgeKind) String() string {
	switch k {
	case Containment:
		return "containment"
	case Reference:
		return "reference"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// Node is a vertex of the XML graph: an element with a tag label and an
// optional string value. Type records the schema node the element conforms
// to; it is assigned by generators or by schema.Assign and is required by
// the rest of the system (keyword indexing, CN generation).
type Node struct {
	ID    NodeID
	Label string // element tag
	Value string // optional string value ("" if none)
	Type  string // schema node name; "" until assigned
}

// Edge is a directed edge between two nodes.
type Edge struct {
	From, To NodeID
	Kind     EdgeKind
}

// Graph is a mutable XML graph. The zero value is not usable; construct
// with New.
type Graph struct {
	nodes  map[NodeID]*Node
	out    map[NodeID][]Edge
	in     map[NodeID][]Edge
	order  []NodeID // insertion order, for deterministic iteration
	nextID NodeID
	nEdges int
}

// New returns an empty XML graph.
func New() *Graph {
	return &Graph{
		nodes:  make(map[NodeID]*Node),
		out:    make(map[NodeID][]Edge),
		in:     make(map[NodeID][]Edge),
		nextID: 1,
	}
}

// AddNode creates a node with a fresh id and returns the id.
func (g *Graph) AddNode(label, value string) NodeID {
	id := g.nextID
	g.nextID++
	g.nodes[id] = &Node{ID: id, Label: label, Value: value}
	g.order = append(g.order, id)
	return id
}

// AddNodeWithID inserts a node with a caller-chosen id (e.g. taken from an
// XML ID attribute). It returns an error if the id is already in use or
// not positive.
func (g *Graph) AddNodeWithID(id NodeID, label, value string) error {
	if id <= 0 {
		return fmt.Errorf("xmlgraph: node id must be positive, got %d", id)
	}
	if _, ok := g.nodes[id]; ok {
		return fmt.Errorf("xmlgraph: duplicate node id %d", id)
	}
	g.nodes[id] = &Node{ID: id, Label: label, Value: value}
	g.order = append(g.order, id)
	if id >= g.nextID {
		g.nextID = id + 1
	}
	return nil
}

// AddEdge inserts a directed edge. Both endpoints must exist. A node may
// have at most one containment parent (XML containment forms a forest);
// violating that is an error.
func (g *Graph) AddEdge(from, to NodeID, kind EdgeKind) error {
	if _, ok := g.nodes[from]; !ok {
		return fmt.Errorf("xmlgraph: edge source %d does not exist", from)
	}
	if _, ok := g.nodes[to]; !ok {
		return fmt.Errorf("xmlgraph: edge target %d does not exist", to)
	}
	if from == to {
		return fmt.Errorf("xmlgraph: self-loop on node %d", from)
	}
	if kind == Containment {
		for _, e := range g.in[to] {
			if e.Kind == Containment {
				return fmt.Errorf("xmlgraph: node %d already has containment parent %d", to, e.From)
			}
		}
	}
	e := Edge{From: from, To: to, Kind: kind}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	g.nEdges++
	return nil
}

// MustAddEdge is AddEdge that panics on error; intended for generators and
// tests building known-good graphs.
func (g *Graph) MustAddEdge(from, to NodeID, kind EdgeKind) {
	if err := g.AddEdge(from, to, kind); err != nil {
		panic(err)
	}
}

// Node returns the node with the given id, or nil if absent.
func (g *Graph) Node(id NodeID) *Node {
	return g.nodes[id]
}

// SetType assigns the schema node of id. It is a no-op for unknown ids.
func (g *Graph) SetType(id NodeID, typ string) {
	if n := g.nodes[id]; n != nil {
		n.Type = typ
	}
}

// Out returns the outgoing edges of id in insertion order. The returned
// slice must not be modified.
func (g *Graph) Out(id NodeID) []Edge { return g.out[id] }

// In returns the incoming edges of id in insertion order. The returned
// slice must not be modified.
func (g *Graph) In(id NodeID) []Edge { return g.in[id] }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.nEdges }

// Nodes returns all node ids in insertion order.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, len(g.order))
	copy(ids, g.order)
	return ids
}

// Edges returns all edges, ordered by source node insertion order.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.nEdges)
	for _, id := range g.order {
		es = append(es, g.out[id]...)
	}
	return es
}

// ContainmentParent returns the containment parent of id, if any.
func (g *Graph) ContainmentParent(id NodeID) (NodeID, bool) {
	for _, e := range g.in[id] {
		if e.Kind == Containment {
			return e.From, true
		}
	}
	return InvalidNode, false
}

// ContainmentChildren returns the containment children of id.
func (g *Graph) ContainmentChildren(id NodeID) []NodeID {
	var kids []NodeID
	for _, e := range g.out[id] {
		if e.Kind == Containment {
			kids = append(kids, e.To)
		}
	}
	return kids
}

// Roots returns the nodes with no incoming containment edge, sorted by id.
// Per the paper a graph may have multiple roots.
func (g *Graph) Roots() []NodeID {
	var roots []NodeID
	for _, id := range g.order {
		if _, ok := g.ContainmentParent(id); !ok {
			roots = append(roots, id)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	return roots
}

// Validate checks structural invariants: every edge endpoint exists, each
// node has at most one containment parent, and containment is acyclic.
func (g *Graph) Validate() error {
	// Endpoint existence and single containment parent are enforced by
	// AddEdge; re-check here for graphs assembled through other means.
	for id, es := range g.in {
		if _, ok := g.nodes[id]; !ok {
			return fmt.Errorf("xmlgraph: edges into unknown node %d", id)
		}
		nParents := 0
		for _, e := range es {
			if _, ok := g.nodes[e.From]; !ok {
				return fmt.Errorf("xmlgraph: edge from unknown node %d", e.From)
			}
			if e.Kind == Containment {
				nParents++
			}
		}
		if nParents > 1 {
			return fmt.Errorf("xmlgraph: node %d has %d containment parents", id, nParents)
		}
	}
	// Containment acyclicity: walk parent chains with a visited set.
	state := make(map[NodeID]int8, len(g.nodes)) // 0 unseen, 1 active, 2 done
	for _, id := range g.order {
		cur := id
		var chain []NodeID
		for {
			switch state[cur] {
			case 2:
			case 1:
				return fmt.Errorf("xmlgraph: containment cycle through node %d", cur)
			default:
				state[cur] = 1
				chain = append(chain, cur)
				if p, ok := g.ContainmentParent(cur); ok {
					cur = p
					continue
				}
			}
			break
		}
		for _, n := range chain {
			state[n] = 2
		}
	}
	return nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	c.nextID = g.nextID
	c.nEdges = g.nEdges
	c.order = append([]NodeID(nil), g.order...)
	for id, n := range g.nodes {
		cp := *n
		c.nodes[id] = &cp
	}
	for id, es := range g.out {
		c.out[id] = append([]Edge(nil), es...)
	}
	for id, es := range g.in {
		c.in[id] = append([]Edge(nil), es...)
	}
	return c
}
