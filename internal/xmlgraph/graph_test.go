package xmlgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddNodeAssignsSequentialIDs(t *testing.T) {
	g := New()
	a := g.AddNode("person", "")
	b := g.AddNode("order", "")
	if a == b {
		t.Fatalf("ids must be unique, both %d", a)
	}
	if g.Node(a).Label != "person" || g.Node(b).Label != "order" {
		t.Fatalf("labels not stored: %+v %+v", g.Node(a), g.Node(b))
	}
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", g.NumNodes())
	}
}

func TestAddNodeWithID(t *testing.T) {
	g := New()
	if err := g.AddNodeWithID(42, "part", "TV"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNodeWithID(42, "part", "VCR"); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := g.AddNodeWithID(0, "part", ""); err == nil {
		t.Fatal("zero id accepted")
	}
	if err := g.AddNodeWithID(-1, "part", ""); err == nil {
		t.Fatal("negative id accepted")
	}
	// Fresh ids must not collide with explicit ones.
	n := g.AddNode("order", "")
	if n == 42 {
		t.Fatal("fresh id collided with explicit id")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New()
	a := g.AddNode("a", "")
	b := g.AddNode("b", "")
	c := g.AddNode("c", "")
	if err := g.AddEdge(a, b, Containment); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(c, b, Containment); err == nil {
		t.Fatal("second containment parent accepted")
	}
	if err := g.AddEdge(c, b, Reference); err != nil {
		t.Fatalf("reference edge into contained node rejected: %v", err)
	}
	if err := g.AddEdge(a, a, Containment); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(a, NodeID(999), Containment); err == nil {
		t.Fatal("edge to unknown node accepted")
	}
	if err := g.AddEdge(NodeID(999), a, Containment); err == nil {
		t.Fatal("edge from unknown node accepted")
	}
}

func TestRootsAndParents(t *testing.T) {
	g := New()
	p := g.AddNode("person", "")
	o := g.AddNode("order", "")
	l := g.AddNode("lineitem", "")
	s := g.AddNode("service_call", "")
	g.MustAddEdge(p, o, Containment)
	g.MustAddEdge(o, l, Containment)
	g.MustAddEdge(s, p, Reference) // references do not affect roots

	roots := g.Roots()
	if len(roots) != 2 || roots[0] != p || roots[1] != s {
		t.Fatalf("Roots = %v, want [%d %d]", roots, p, s)
	}
	if par, ok := g.ContainmentParent(l); !ok || par != o {
		t.Fatalf("parent of %d = %d,%v want %d", l, par, ok, o)
	}
	if _, ok := g.ContainmentParent(p); ok {
		t.Fatal("root has a containment parent")
	}
	if kids := g.ContainmentChildren(p); len(kids) != 1 || kids[0] != o {
		t.Fatalf("children of %d = %v", p, kids)
	}
}

func TestValidateDetectsContainmentCycle(t *testing.T) {
	// Assemble a cyclic containment chain by bypassing AddEdge's parent
	// check (a <- b is fine, then force b <- a via direct mutation).
	g := New()
	a := g.AddNode("a", "")
	b := g.AddNode("b", "")
	g.MustAddEdge(a, b, Containment)
	e := Edge{From: b, To: a, Kind: Containment}
	g.out[b] = append(g.out[b], e)
	g.in[a] = append(g.in[a], e)
	g.nEdges++
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted a containment cycle")
	}
}

func TestValidateOK(t *testing.T) {
	g := New()
	a := g.AddNode("a", "")
	b := g.AddNode("b", "")
	c := g.AddNode("c", "")
	g.MustAddEdge(a, b, Containment)
	g.MustAddEdge(a, c, Containment)
	g.MustAddEdge(c, b, Reference)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSubgraphIsUncycled(t *testing.T) {
	tree := Subgraph{
		Nodes: []NodeID{1, 2, 3},
		Edges: []Edge{{From: 1, To: 2}, {From: 1, To: 3}},
	}
	if !tree.IsUncycled() {
		t.Fatal("tree reported cycled")
	}
	cyc := Subgraph{
		Nodes: []NodeID{1, 2, 3},
		Edges: []Edge{{From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 1}},
	}
	if cyc.IsUncycled() {
		t.Fatal("triangle reported uncycled")
	}
	// Anti-parallel edges between the same pair are NOT an undirected
	// cycle (they collapse to one undirected edge).
	anti := Subgraph{
		Nodes: []NodeID{1, 2},
		Edges: []Edge{{From: 1, To: 2}, {From: 2, To: 1}},
	}
	if !anti.IsUncycled() {
		t.Fatal("anti-parallel pair reported cycled")
	}
}

func TestSubgraphIsConnected(t *testing.T) {
	s := Subgraph{
		Nodes: []NodeID{1, 2, 3},
		Edges: []Edge{{From: 1, To: 2}},
	}
	if s.IsConnected() {
		t.Fatal("disconnected subgraph reported connected")
	}
	s.Edges = append(s.Edges, Edge{From: 3, To: 2})
	if !s.IsConnected() {
		t.Fatal("connected subgraph reported disconnected")
	}
	if !(Subgraph{}).IsConnected() {
		t.Fatal("empty subgraph must be connected")
	}
}

func TestClone(t *testing.T) {
	g := New()
	a := g.AddNode("a", "v")
	g.SetType(a, "T")
	b := g.AddNode("b", "")
	g.MustAddEdge(a, b, Containment)
	c := g.Clone()
	c.Node(a).Value = "changed"
	c.AddNode("extra", "")
	if g.Node(a).Value != "v" {
		t.Fatal("clone shares node storage")
	}
	if g.NumNodes() != 2 || c.NumNodes() != 3 {
		t.Fatalf("node counts: orig %d clone %d", g.NumNodes(), c.NumNodes())
	}
	if c.Node(a).Type != "T" {
		t.Fatal("clone lost node type")
	}
}

// Property: a random containment forest is always uncycled and Validate
// accepts it; adding any extra undirected connection between two existing
// tree nodes makes the Subgraph of all nodes/edges cycled.
func TestRandomForestProperties(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		rng := rand.New(rand.NewSource(seed))
		g := New()
		ids := make([]NodeID, n)
		for i := 0; i < n; i++ {
			ids[i] = g.AddNode("n", "")
			if i > 0 {
				parent := ids[rng.Intn(i)]
				g.MustAddEdge(parent, ids[i], Containment)
			}
		}
		if err := g.Validate(); err != nil {
			return false
		}
		all := Subgraph{Nodes: g.Nodes(), Edges: g.Edges()}
		if !all.IsUncycled() || !all.IsConnected() {
			return false
		}
		// Close a cycle with a reference edge between two distinct nodes.
		a, b := ids[rng.Intn(n)], ids[rng.Intn(n)]
		if a == b {
			return true
		}
		for _, nb := range g.UndirectedNeighbors(a) {
			if nb.Node == b {
				// A parallel edge collapses in the undirected view; skip.
				return true
			}
		}
		g.MustAddEdge(a, b, Reference)
		all = Subgraph{Nodes: g.Nodes(), Edges: g.Edges()}
		return !all.IsUncycled()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
