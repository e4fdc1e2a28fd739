package schema

import (
	"testing"

	"repro/internal/xmlgraph"
)

// miniSchema builds a small TPC-H-like schema:
//
//	person(root) -> name(1), nation(1), order(*)
//	order -> lineitem(*)
//	lineitem -> line(choice,1)
//	line -ref-> part ; line -> product(1)
//	part(root) -> pname(1)
//	product -> descr(1)
func miniSchema(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.MustBuild(
		g.AddNode("person", All),
		g.AddNode("name", All),
		g.AddNode("nation", All),
		g.AddNode("order", All),
		g.AddNode("lineitem", All),
		g.AddNode("line", Choice),
		g.AddNode("part", All),
		g.AddTaggedNode("pname", "name", All),
		g.AddNode("product", All),
		g.AddNode("descr", All),
		g.SetRoot("person"),
		g.SetRoot("part"),
		g.AddEdge("person", "name", xmlgraph.Containment, 1),
		g.AddEdge("person", "nation", xmlgraph.Containment, 1),
		g.AddEdge("person", "order", xmlgraph.Containment, Unbounded),
		g.AddEdge("order", "lineitem", xmlgraph.Containment, Unbounded),
		g.AddEdge("lineitem", "line", xmlgraph.Containment, 1),
		g.AddEdge("line", "part", xmlgraph.Reference, 1),
		g.AddEdge("line", "product", xmlgraph.Containment, 1),
		g.AddEdge("part", "pname", xmlgraph.Containment, 1),
		g.AddEdge("product", "descr", xmlgraph.Containment, 1),
	)
	return g
}

func TestBuildValidation(t *testing.T) {
	g := New()
	if err := g.AddNode("", All); err == nil {
		t.Fatal("empty node name accepted")
	}
	if err := g.AddNode("a", All); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode("a", All); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if err := g.AddEdge("a", "missing", xmlgraph.Containment, 1); err == nil {
		t.Fatal("edge to unknown node accepted")
	}
	if err := g.AddEdge("missing", "a", xmlgraph.Containment, 1); err == nil {
		t.Fatal("edge from unknown node accepted")
	}
	if err := g.AddNode("b", All); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("a", "b", xmlgraph.Containment, 0); err == nil {
		t.Fatal("maxOccurs 0 accepted")
	}
	if err := g.AddEdge("a", "b", xmlgraph.Containment, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("a", "b", xmlgraph.Containment, 2); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if err := g.SetRoot("missing"); err == nil {
		t.Fatal("SetRoot on unknown node accepted")
	}
}

func TestNeighborsDeterministic(t *testing.T) {
	g := miniSchema(t)
	ns := g.Neighbors("lineitem")
	// lineitem: in from order, out to line.
	if len(ns) != 2 {
		t.Fatalf("neighbors = %+v", ns)
	}
	if ns[0].Node != "line" || !ns[0].Forward {
		t.Fatalf("first neighbor = %+v", ns[0])
	}
	if ns[1].Node != "order" || ns[1].Forward {
		t.Fatalf("second neighbor = %+v", ns[1])
	}
}

// buildConformingData builds a data graph that conforms to miniSchema.
func buildConformingData(t *testing.T) *xmlgraph.Graph {
	t.Helper()
	d := xmlgraph.New()
	p := d.AddNode("person", "")
	nm := d.AddNode("name", "John")
	na := d.AddNode("nation", "US")
	o := d.AddNode("order", "")
	l := d.AddNode("lineitem", "")
	ln := d.AddNode("line", "")
	pa := d.AddNode("part", "")
	pn := d.AddNode("name", "TV") // part's name: same tag, different schema node
	d.MustAddEdge(p, nm, xmlgraph.Containment)
	d.MustAddEdge(p, na, xmlgraph.Containment)
	d.MustAddEdge(p, o, xmlgraph.Containment)
	d.MustAddEdge(o, l, xmlgraph.Containment)
	d.MustAddEdge(l, ln, xmlgraph.Containment)
	d.MustAddEdge(ln, pa, xmlgraph.Reference)
	d.MustAddEdge(pa, pn, xmlgraph.Containment)
	return d
}

func TestAssignTypes(t *testing.T) {
	g := miniSchema(t)
	d := buildConformingData(t)
	if err := g.Assign(d); err != nil {
		t.Fatal(err)
	}
	// The part's <name> child must be typed pname, the person's name.
	var sawPname, sawName bool
	for _, id := range d.Nodes() {
		n := d.Node(id)
		if n.Label == "name" {
			switch n.Type {
			case "pname":
				sawPname = true
			case "name":
				sawName = true
			default:
				t.Fatalf("name node typed %q", n.Type)
			}
		}
	}
	if !sawPname || !sawName {
		t.Fatalf("context-dependent typing failed: pname=%v name=%v", sawPname, sawName)
	}
}

func TestAssignRejectsUnknownRoot(t *testing.T) {
	g := miniSchema(t)
	d := xmlgraph.New()
	d.AddNode("mystery", "")
	if err := g.Assign(d); err == nil {
		t.Fatal("unknown root accepted")
	}
}

func TestAssignRejectsBadChild(t *testing.T) {
	g := miniSchema(t)
	d := xmlgraph.New()
	p := d.AddNode("person", "")
	x := d.AddNode("descr", "oops") // person may not contain descr
	d.MustAddEdge(p, x, xmlgraph.Containment)
	if err := g.Assign(d); err == nil {
		t.Fatal("invalid child accepted")
	}
}

func TestAssignEnforcesMaxOccurs(t *testing.T) {
	g := miniSchema(t)
	d := xmlgraph.New()
	p := d.AddNode("person", "")
	n1 := d.AddNode("name", "a")
	n2 := d.AddNode("name", "b")
	d.MustAddEdge(p, n1, xmlgraph.Containment)
	d.MustAddEdge(p, n2, xmlgraph.Containment)
	if err := g.Assign(d); err == nil {
		t.Fatal("two name children accepted despite maxOccurs=1")
	}
}

func TestAssignEnforcesChoice(t *testing.T) {
	g := miniSchema(t)
	d := xmlgraph.New()
	l := d.AddNode("lineitem", "")
	// lineitem is not a root; hang it under a full chain.
	p := d.AddNode("person", "")
	o := d.AddNode("order", "")
	ln := d.AddNode("line", "")
	pr := d.AddNode("product", "")
	pa := d.AddNode("part", "")
	d.MustAddEdge(p, o, xmlgraph.Containment)
	d.MustAddEdge(o, l, xmlgraph.Containment)
	d.MustAddEdge(l, ln, xmlgraph.Containment)
	d.MustAddEdge(ln, pr, xmlgraph.Containment)
	d.MustAddEdge(ln, pa, xmlgraph.Reference) // second alternative: violates choice
	if err := g.Assign(d); err == nil {
		t.Fatal("choice node with two alternatives accepted")
	}
}

func TestAssignRejectsBadReference(t *testing.T) {
	g := miniSchema(t)
	d := buildConformingData(t)
	// Add a reference person -> part: no such schema edge.
	var p, pa xmlgraph.NodeID
	for _, id := range d.Nodes() {
		switch d.Node(id).Label {
		case "person":
			p = id
		case "part":
			pa = id
		}
	}
	d.MustAddEdge(p, pa, xmlgraph.Reference)
	if err := g.Assign(d); err == nil {
		t.Fatal("undeclared reference accepted")
	}
}

func TestAssignRejectsUnreachable(t *testing.T) {
	g := miniSchema(t)
	d := buildConformingData(t)
	// An orphan "name" element is a root but name is not root-capable.
	d.AddNode("name", "orphan")
	if err := g.Assign(d); err == nil {
		t.Fatal("orphan non-root element accepted")
	}
}

func TestEdgesAndCounts(t *testing.T) {
	g := miniSchema(t)
	if g.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 9 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if len(g.Edges()) != 9 {
		t.Fatalf("Edges() = %d", len(g.Edges()))
	}
	if e, ok := g.FindEdge("line", "part", xmlgraph.Reference); !ok || e.MaxOccurs != 1 {
		t.Fatalf("FindEdge line->part = %+v, %v", e, ok)
	}
	if _, ok := g.FindEdge("line", "part", xmlgraph.Containment); ok {
		t.Fatal("FindEdge matched wrong kind")
	}
	if !g.IsChoice("line") || g.IsChoice("person") || g.IsChoice("missing") {
		t.Fatal("IsChoice wrong")
	}
}
