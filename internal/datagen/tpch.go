// Package datagen provides the two datasets of the paper: the TPC-H-like
// XML graph of Figures 1/5/6 (used for the worked examples) and a
// DBLP-like graph matching Figure 14 (used for the experiments of §7,
// with synthetic citations added exactly as the paper does). All
// generators are deterministic given a seed, and each returns its data
// already decomposed (tss.Prepare), ready for core.LoadPrepared.
package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/schema"
	"repro/internal/tss"
	"repro/internal/xmlgraph"
)

// TPCHSchema returns the TPC-H-based schema graph of Figure 5:
//
//	person(root)       -> name(1), nation(1), order(*)
//	order              -> lineitem(*)
//	lineitem           -> quantity(1), ship(1), supplier(1), line(1)
//	supplier (dummy)   -ref-> person                 ("supplied by")
//	line (dummy,choice) -ref-> part | -> product(1)  ("line of")
//	part(root)         -> key(1), pname(1), sub(*)
//	sub (dummy)        -> part(1)                    ("sub-part")
//	product            -> prodkey(1), pdescr(1)
//	service_call(root) -> scdescr(1); -ref-> person  ("issued by")
func TPCHSchema() *schema.Graph {
	g := schema.New()
	g.MustBuild(
		g.AddNode("person", schema.All),
		g.AddNode("name", schema.All),
		g.AddNode("nation", schema.All),
		g.AddNode("order", schema.All),
		g.AddNode("lineitem", schema.All),
		g.AddNode("quantity", schema.All),
		g.AddNode("ship", schema.All),
		g.AddNode("supplier", schema.All),
		g.AddNode("line", schema.Choice),
		g.AddNode("part", schema.All),
		g.AddNode("key", schema.All),
		g.AddTaggedNode("pname", "name", schema.All),
		g.AddNode("sub", schema.All),
		g.AddNode("product", schema.All),
		g.AddNode("prodkey", schema.All),
		g.AddTaggedNode("pdescr", "descr", schema.All),
		g.AddNode("service_call", schema.All),
		g.AddTaggedNode("scdescr", "descr", schema.All),
		g.SetRoot("person"),
		g.SetRoot("part"),
		g.SetRoot("service_call"),

		g.AddEdge("person", "name", xmlgraph.Containment, 1),
		g.AddEdge("person", "nation", xmlgraph.Containment, 1),
		g.AddEdge("person", "order", xmlgraph.Containment, schema.Unbounded),
		g.AddEdge("order", "lineitem", xmlgraph.Containment, schema.Unbounded),
		g.AddEdge("lineitem", "quantity", xmlgraph.Containment, 1),
		g.AddEdge("lineitem", "ship", xmlgraph.Containment, 1),
		g.AddEdge("lineitem", "supplier", xmlgraph.Containment, 1),
		g.AddEdge("lineitem", "line", xmlgraph.Containment, 1),
		g.AddEdge("supplier", "person", xmlgraph.Reference, 1),
		g.AddEdge("line", "part", xmlgraph.Reference, 1),
		g.AddEdge("line", "product", xmlgraph.Containment, 1),
		g.AddEdge("part", "key", xmlgraph.Containment, 1),
		g.AddEdge("part", "pname", xmlgraph.Containment, 1),
		g.AddEdge("part", "sub", xmlgraph.Containment, schema.Unbounded),
		g.AddEdge("sub", "part", xmlgraph.Containment, 1),
		g.AddEdge("product", "prodkey", xmlgraph.Containment, 1),
		g.AddEdge("product", "pdescr", xmlgraph.Containment, 1),
		g.AddEdge("service_call", "scdescr", xmlgraph.Containment, 1),
		g.AddEdge("service_call", "person", xmlgraph.Reference, 1),
	)
	return g
}

// TPCHSpec returns the target decomposition of Figure 6: the segments and
// their semantic edge annotations. supplier, line and sub are dummy
// schema nodes.
func TPCHSpec() tss.Spec {
	return tss.Spec{
		Segments: []tss.SegmentSpec{
			{Name: "person", Head: "person", Members: []string{"name", "nation"}},
			{Name: "order", Head: "order"},
			{Name: "lineitem", Head: "lineitem", Members: []string{"quantity", "ship"}},
			{Name: "part", Head: "part", Members: []string{"key", "pname"}},
			{Name: "product", Head: "product", Members: []string{"prodkey", "pdescr"}},
			{Name: "service_call", Head: "service_call", Members: []string{"scdescr"}},
		},
		Annotations: []tss.Annotation{
			{Path: "person>order", Forward: "placed", Backward: "placed by"},
			{Path: "order>lineitem", Forward: "contains", Backward: "contained in"},
			{Path: "lineitem>supplier>person", Forward: "supplied by", Backward: "supplier of"},
			{Path: "lineitem>line>part", Forward: "line", Backward: "line of"},
			{Path: "lineitem>line>product", Forward: "line", Backward: "line of"},
			{Path: "part>sub>part", Forward: "sub-part", Backward: "sub-part of"},
			{Path: "service_call>person", Forward: "issued by", Backward: "issued"},
		},
	}
}

// Dataset is tss.Dataset under the name the generators' results once
// had; the serving benchmark (bench/xkload) still names it.
type Dataset = tss.Dataset

// TPCHFigure1 builds the exact sample instance of Figure 1 (as far as the
// worked examples need it): John supplies two lineitems that reference
// the TV part (key 1005) with VCR sub-parts (keys 1008, 1009), and one
// lineitem whose product is described as "set of VCR and DVD". It is the
// fixture behind the §1 ("John, VCR") and Figure 2 ("US, VCR") examples.
func TPCHFigure1() (*tss.Dataset, error) {
	d := xmlgraph.New()
	add := func(label, value string) xmlgraph.NodeID { return d.AddNode(label, value) }
	cont := func(a, b xmlgraph.NodeID) { d.MustAddEdge(a, b, xmlgraph.Containment) }
	ref := func(a, b xmlgraph.NodeID) { d.MustAddEdge(a, b, xmlgraph.Reference) }

	// Persons.
	p1 := add("person", "")
	cont(p1, add("name", "John"))
	cont(p1, add("nation", "US"))
	p2 := add("person", "")
	cont(p2, add("name", "Mike"))
	cont(p2, add("nation", "US"))

	// Mike places an order; John supplies its lineitems.
	o1 := add("order", "")
	cont(p2, o1)
	newLineitem := func(order xmlgraph.NodeID, qty, ship string, supplier xmlgraph.NodeID) xmlgraph.NodeID {
		l := add("lineitem", "")
		cont(order, l)
		cont(l, add("quantity", qty))
		cont(l, add("ship", ship))
		s := add("supplier", "")
		cont(l, s)
		ref(s, supplier)
		return l
	}
	l1 := newLineitem(o1, "10", "Oct 29 2001", p1)
	l2 := newLineitem(o1, "6", "Oct 25 2001", p1)
	l3 := newLineitem(o1, "10", "Nov 13 2001", p1)

	// The TV part with two VCR sub-parts (Figure 2's pa3, pa1, pa2).
	pa3 := add("part", "")
	cont(pa3, add("key", "1005"))
	cont(pa3, add("name", "TV"))
	newSubPart := func(parent xmlgraph.NodeID, key, name string) xmlgraph.NodeID {
		s := add("sub", "")
		cont(parent, s)
		pa := add("part", "")
		cont(s, pa)
		cont(pa, add("key", key))
		cont(pa, add("name", name))
		return pa
	}
	newSubPart(pa3, "1008", "VCR")
	newSubPart(pa3, "1009", "VCR")

	// l1 and l2 both reference the TV part (the Figure 2 MVD fragment).
	for _, l := range []xmlgraph.NodeID{l1, l2} {
		ln := add("line", "")
		cont(l, ln)
		ref(ln, pa3)
	}
	// l3 carries the product "set of VCR and DVD".
	ln3 := add("line", "")
	cont(l3, ln3)
	pr := add("product", "")
	cont(ln3, pr)
	cont(pr, add("prodkey", "2005"))
	cont(pr, add("descr", "set of VCR and DVD"))

	// A service call about the DVD, issued by Mike.
	sc := add("service_call", "")
	cont(sc, add("descr", "DVD error"))
	ref(sc, p2)

	return tss.Prepare(TPCHSchema(), TPCHSpec(), d)
}

// TPCHParams sizes a synthetic TPC-H-like dataset.
type TPCHParams struct {
	Persons           int
	OrdersPerPerson   int
	LineitemsPerOrder int
	Parts             int // top-level parts
	SubsPerPart       int
	Seed              int64
}

// DefaultTPCHParams returns a small but non-trivial configuration.
func DefaultTPCHParams() TPCHParams {
	return TPCHParams{
		Persons:           50,
		OrdersPerPerson:   4,
		LineitemsPerOrder: 3,
		Parts:             40,
		SubsPerPart:       3,
		Seed:              1,
	}
}

// TPCH generates a synthetic TPC-H-like dataset. Person names and part
// names are drawn from small pools so multi-occurrence keywords exist;
// every lineitem references a random supplier person and either a random
// part or an inline product (choice).
func TPCH(p TPCHParams) (*tss.Dataset, error) {
	rng := rand.New(rand.NewSource(p.Seed))
	d := xmlgraph.New()
	cont := func(a, b xmlgraph.NodeID) { d.MustAddEdge(a, b, xmlgraph.Containment) }
	ref := func(a, b xmlgraph.NodeID) { d.MustAddEdge(a, b, xmlgraph.Reference) }

	persons := make([]xmlgraph.NodeID, p.Persons)
	for i := range persons {
		pe := d.AddNode("person", "")
		cont(pe, d.AddNode("name", personNames[i%len(personNames)]))
		cont(pe, d.AddNode("nation", nations[i%len(nations)]))
		persons[i] = pe
	}
	var parts []xmlgraph.NodeID
	key := 1000
	for i := 0; i < p.Parts; i++ {
		pa := d.AddNode("part", "")
		cont(pa, d.AddNode("key", fmt.Sprint(key)))
		cont(pa, d.AddNode("name", partNames[i%len(partNames)]))
		key++
		parts = append(parts, pa)
		for s := 0; s < p.SubsPerPart; s++ {
			sb := d.AddNode("sub", "")
			cont(pa, sb)
			sp := d.AddNode("part", "")
			cont(sb, sp)
			cont(sp, d.AddNode("key", fmt.Sprint(key)))
			cont(sp, d.AddNode("name", partNames[rng.Intn(len(partNames))]))
			key++
			parts = append(parts, sp)
		}
	}
	for _, pe := range persons {
		for o := 0; o < p.OrdersPerPerson; o++ {
			or := d.AddNode("order", "")
			cont(pe, or)
			for l := 0; l < p.LineitemsPerOrder; l++ {
				li := d.AddNode("lineitem", "")
				cont(or, li)
				cont(li, d.AddNode("quantity", fmt.Sprint(1+rng.Intn(20))))
				cont(li, d.AddNode("ship", fmt.Sprintf("2001-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))))
				sup := d.AddNode("supplier", "")
				cont(li, sup)
				ref(sup, persons[rng.Intn(len(persons))])
				ln := d.AddNode("line", "")
				cont(li, ln)
				if rng.Intn(4) == 0 {
					pr := d.AddNode("product", "")
					cont(ln, pr)
					cont(pr, d.AddNode("prodkey", fmt.Sprint(2000+rng.Intn(1000))))
					cont(pr, d.AddNode("descr", "set of "+partNames[rng.Intn(len(partNames))]+" and "+partNames[rng.Intn(len(partNames))]))
				} else {
					ref(ln, parts[rng.Intn(len(parts))])
				}
			}
		}
	}
	return tss.Prepare(TPCHSchema(), TPCHSpec(), d)
}

var personNames = []string{"John", "Mike", "Anna", "Maria", "Wei", "Yannis", "Vagelis", "Andrey", "Laura", "Pedro"}
var nations = []string{"US", "GR", "CN", "BR", "DE", "FR"}
var partNames = []string{"TV", "VCR", "DVD", "Radio", "Speaker", "Antenna", "Tuner", "Amp", "Remote", "Screen"}
