package decomp_test

import (
	"fmt"
	"testing"

	"repro/internal/cn"
	"repro/internal/datagen"
	"repro/internal/decomp"
	"repro/internal/schema"
	"repro/internal/tss"
	"repro/internal/xmlgraph"
)

// edgeID finds a TSS edge by its schema path rendering.
func edgeID(t *testing.T, tg *tss.Graph, path string) int {
	t.Helper()
	for _, e := range tg.Edges() {
		if e.PathString() == path {
			return e.ID
		}
	}
	t.Fatalf("no TSS edge %q", path)
	return -1
}

func tpchGraph(t *testing.T) *tss.Graph {
	t.Helper()
	g, err := tss.Derive(datagen.TPCHSchema(), datagen.TPCHSpec())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Shorthand step constructors bound to the TPC-H TSS graph.
type tpchEdges struct {
	liPart, liPerson, liProd, ordLi, partPart, persOrd, scPers int
}

func tpchIDs(t *testing.T, tg *tss.Graph) tpchEdges {
	return tpchEdges{
		liPart:   edgeID(t, tg, "lineitem>line>part"),
		liPerson: edgeID(t, tg, "lineitem>supplier>person"),
		liProd:   edgeID(t, tg, "lineitem>line>product"),
		ordLi:    edgeID(t, tg, "order>lineitem"),
		partPart: edgeID(t, tg, "part>sub>part"),
		persOrd:  edgeID(t, tg, "person>order"),
		scPers:   edgeID(t, tg, "service_call>person"),
	}
}

func TestFragmentConstruction(t *testing.T) {
	tg := tpchGraph(t)
	e := tpchIDs(t, tg)
	// POL: person>order>lineitem.
	pol := decomp.MustFragment(tg,
		decomp.Step{EdgeID: e.persOrd, Dir: decomp.Fwd},
		decomp.Step{EdgeID: e.ordLi, Dir: decomp.Fwd})
	if pol.Size() != 2 {
		t.Fatalf("size = %d", pol.Size())
	}
	// Segments follow the canonical orientation, which may be reversed.
	segs := pol.Segments(tg)
	if !(segs[0] == "person" && segs[1] == "order" && segs[2] == "lineitem") &&
		!(segs[0] == "lineitem" && segs[1] == "order" && segs[2] == "person") {
		t.Fatalf("segments = %v", segs)
	}
	// A fragment equals its reverse.
	rev := decomp.MustFragment(tg,
		decomp.Step{EdgeID: e.ordLi, Dir: decomp.Bwd},
		decomp.Step{EdgeID: e.persOrd, Dir: decomp.Bwd})
	if pol.Key() != rev.Key() {
		t.Fatalf("reverse keys differ: %q vs %q", pol.Key(), rev.Key())
	}
	// Disconnected steps rejected.
	if _, err := decomp.NewFragment(tg, []decomp.Step{
		{EdgeID: e.persOrd, Dir: decomp.Fwd},
		{EdgeID: e.partPart, Dir: decomp.Fwd},
	}); err == nil {
		t.Fatal("disconnected steps accepted")
	}
	if _, err := decomp.NewFragment(tg, nil); err == nil {
		t.Fatal("empty fragment accepted")
	}
	if _, err := decomp.NewFragment(tg, []decomp.Step{{EdgeID: 999}}); err == nil {
		t.Fatal("unknown edge accepted")
	}
	if _, err := decomp.NewFragment(tg, []decomp.Step{{EdgeID: e.persOrd, Dir: decomp.Bwd + 1}}); err == nil {
		t.Fatal("unknown direction accepted")
	}
}

// Theorem 5.3 on the paper's examples: PaLOLPa has the MVD
// O ->-> L1,Pa1 (Figure 10); POL and OLPa are inlined; single edges 4NF.
func TestMVDTheorem(t *testing.T) {
	tg := tpchGraph(t)
	e := tpchIDs(t, tg)
	cases := []struct {
		name  string
		steps []decomp.Step
		class decomp.Class
	}{
		{"PaPa (single edge)", []decomp.Step{{EdgeID: e.partPart, Dir: decomp.Fwd}}, decomp.Class4NF},
		{"POL", []decomp.Step{{EdgeID: e.persOrd, Dir: decomp.Fwd}, {EdgeID: e.ordLi, Dir: decomp.Fwd}}, decomp.ClassInlined},
		{"OLPa", []decomp.Step{{EdgeID: e.ordLi, Dir: decomp.Fwd}, {EdgeID: e.liPart, Dir: decomp.Fwd}}, decomp.ClassInlined},
		{"PaLOLPa", []decomp.Step{
			{EdgeID: e.liPart, Dir: decomp.Bwd},
			{EdgeID: e.ordLi, Dir: decomp.Bwd},
			{EdgeID: e.ordLi, Dir: decomp.Fwd},
			{EdgeID: e.liPart, Dir: decomp.Fwd},
		}, decomp.ClassMVD},
		{"LOL (sibling lineitems)", []decomp.Step{
			{EdgeID: e.ordLi, Dir: decomp.Bwd},
			{EdgeID: e.ordLi, Dir: decomp.Fwd},
		}, decomp.ClassMVD},
		{"LPaL (lineitems sharing a part)", []decomp.Step{
			{EdgeID: e.liPart, Dir: decomp.Fwd},
			{EdgeID: e.liPart, Dir: decomp.Bwd},
		}, decomp.ClassMVD},
		{"PaPaPa (sub chain)", []decomp.Step{
			{EdgeID: e.partPart, Dir: decomp.Fwd},
			{EdgeID: e.partPart, Dir: decomp.Fwd},
		}, decomp.ClassInlined},
		{"PaPaPa (two subs of one part)", []decomp.Step{
			{EdgeID: e.partPart, Dir: decomp.Bwd},
			{EdgeID: e.partPart, Dir: decomp.Fwd},
		}, decomp.ClassMVD},
	}
	for _, c := range cases {
		f := decomp.MustFragment(tg, c.steps...)
		if got := f.Classify(tg); got != c.class {
			t.Errorf("%s (%s): class %s, want %s", c.name, f.String(tg), got, c.class)
		}
	}
}

// §5's useless fragments: PaLPr (part and product through one lineitem's
// choice) and L-Pr-L (two lineitems through one contained product) can
// never connect distinct target objects; L-Pa-L (through a referenced
// part) can — the Figure 2 data does exactly that.
func TestUselessFragments(t *testing.T) {
	tg := tpchGraph(t)
	e := tpchIDs(t, tg)
	cases := []struct {
		name    string
		steps   []decomp.Step
		useless bool
	}{
		{"PaLPr", []decomp.Step{{EdgeID: e.liPart, Dir: decomp.Bwd}, {EdgeID: e.liProd, Dir: decomp.Fwd}}, true},
		{"LPrL", []decomp.Step{{EdgeID: e.liProd, Dir: decomp.Fwd}, {EdgeID: e.liProd, Dir: decomp.Bwd}}, true},
		{"LPaL", []decomp.Step{{EdgeID: e.liPart, Dir: decomp.Fwd}, {EdgeID: e.liPart, Dir: decomp.Bwd}}, false},
		{"PaLPa (one lineitem, part twice)", []decomp.Step{{EdgeID: e.liPart, Dir: decomp.Bwd}, {EdgeID: e.liPart, Dir: decomp.Fwd}}, true},
		{"POL", []decomp.Step{{EdgeID: e.persOrd, Dir: decomp.Fwd}, {EdgeID: e.ordLi, Dir: decomp.Fwd}}, false},
		{"O-P-O (orders of one person)", []decomp.Step{{EdgeID: e.persOrd, Dir: decomp.Bwd}, {EdgeID: e.persOrd, Dir: decomp.Fwd}}, false},
		{"P-SC-? two persons via one service_call", []decomp.Step{{EdgeID: e.scPers, Dir: decomp.Bwd}, {EdgeID: e.scPers, Dir: decomp.Fwd}}, true},
		{"SC-P-SC", []decomp.Step{{EdgeID: e.scPers, Dir: decomp.Fwd}, {EdgeID: e.scPers, Dir: decomp.Bwd}}, false},
	}
	for _, c := range cases {
		f := decomp.MustFragment(tg, c.steps...)
		if got := f.IsUseless(tg); got != c.useless {
			t.Errorf("%s (%s): useless=%v, want %v", c.name, f.String(tg), got, c.useless)
		}
	}
}

func TestEnumerateFragmentsExcludesUseless(t *testing.T) {
	tg := tpchGraph(t)
	for n := 1; n <= 3; n++ {
		all := decomp.EnumerateFragments(tg, n, true)
		nonMVD := decomp.EnumerateFragments(tg, n, false)
		if len(nonMVD) > len(all) {
			t.Fatalf("n=%d: non-MVD %d > all %d", n, len(nonMVD), len(all))
		}
		seen := map[string]bool{}
		for _, f := range all {
			if f.Size() != n {
				t.Fatalf("n=%d: got size %d", n, f.Size())
			}
			if f.IsUseless(tg) {
				t.Fatalf("useless fragment enumerated: %s", f.String(tg))
			}
			if seen[f.Key()] {
				t.Fatalf("duplicate fragment %s", f.Key())
			}
			seen[f.Key()] = true
		}
		for _, f := range nonMVD {
			if f.HasMVD(tg) {
				t.Fatalf("MVD fragment in non-MVD enumeration: %s", f.String(tg))
			}
		}
	}
	if len(decomp.EnumerateFragments(tg, 1, true)) != tg.NumEdges() {
		t.Fatalf("size-1 fragments != edges")
	}
	if decomp.EnumerateFragments(tg, 0, true) != nil {
		t.Fatal("n=0 returned fragments")
	}
}

// ctssn4 builds the shape Pa <- L <- O -> L -> Pa of Example 5.1.
func ctssn4(t *testing.T, tg *tss.Graph) *cn.TSSNetwork {
	e := tpchIDs(t, tg)
	return &cn.TSSNetwork{
		Occs: []cn.TSSOcc{
			{Segment: "part"}, {Segment: "lineitem"}, {Segment: "order"},
			{Segment: "lineitem"}, {Segment: "part"},
		},
		Edges: []cn.TSSEdgeRef{
			{From: 1, To: 0, EdgeID: e.liPart},
			{From: 2, To: 1, EdgeID: e.ordLi},
			{From: 2, To: 3, EdgeID: e.ordLi},
			{From: 3, To: 4, EdgeID: e.liPart},
		},
	}
}

// Example 5.1/5.2: CTSSN4 needs 3 joins under the minimal decomposition,
// 1 join once the OLPa fragment exists, and 0 joins with the unfolded
// PaLOLPa fragment.
func TestDecompositionJoinCounts(t *testing.T) {
	tg := tpchGraph(t)
	e := tpchIDs(t, tg)
	shape := ctssn4(t, tg)

	minimal := decomp.Minimal(tg)
	if j := decomp.MinJoins(tg, shape, minimal.Fragments); j != 3 {
		t.Errorf("minimal: %d joins, want 3", j)
	}

	olpa := decomp.MustFragment(tg,
		decomp.Step{EdgeID: e.ordLi, Dir: decomp.Fwd},
		decomp.Step{EdgeID: e.liPart, Dir: decomp.Fwd})
	withOLPa := append(append([]decomp.Fragment(nil), minimal.Fragments...), olpa)
	if j := decomp.MinJoins(tg, shape, withOLPa); j != 1 {
		t.Errorf("with OLPa: %d joins, want 1", j)
	}

	palolpa := decomp.MustFragment(tg,
		decomp.Step{EdgeID: e.liPart, Dir: decomp.Bwd},
		decomp.Step{EdgeID: e.ordLi, Dir: decomp.Bwd},
		decomp.Step{EdgeID: e.ordLi, Dir: decomp.Fwd},
		decomp.Step{EdgeID: e.liPart, Dir: decomp.Fwd})
	withBig := append(withOLPa, palolpa)
	if j := decomp.MinJoins(tg, shape, withBig); j != 0 {
		t.Errorf("with PaLOLPa: %d joins, want 0", j)
	}

	// A fragment set that cannot cover the shape at all.
	only := []decomp.Fragment{decomp.MustFragment(tg, decomp.Step{EdgeID: e.partPart, Dir: decomp.Fwd})}
	if j := decomp.MinJoins(tg, shape, only); j != -1 {
		t.Errorf("uncoverable shape: %d, want -1", j)
	}
}

func TestJoinBound(t *testing.T) {
	cases := []struct{ m, b, want int }{
		{6, 2, 2}, {8, 2, 3}, {4, 1, 2}, {1, 0, 1}, {7, 3, 2}, {6, 0, 6},
	}
	for _, c := range cases {
		if got := decomp.JoinBound(c.m, c.b); got != c.want {
			t.Errorf("JoinBound(%d,%d) = %d, want %d", c.m, c.b, got, c.want)
		}
	}
}

// Theorem 5.1: the XKeyword decomposition evaluates every CTSSN shape of
// size up to M with at most B joins.
func TestTheorem51(t *testing.T) {
	for _, cfg := range []struct{ m, b int }{{4, 1}, {6, 2}, {4, 3}} {
		for _, build := range []func(*testing.T) *tss.Graph{tpchGraph, dblpGraph} {
			tg := build(t)
			d, err := decomp.XKeyword(tg, cfg.m, cfg.b)
			if err != nil {
				t.Fatalf("m=%d b=%d: %v", cfg.m, cfg.b, err)
			}
			cov := decomp.NewCoverer(tg, d.Fragments)
			for _, shape := range decomp.EnumerateShapes(tg, cfg.m) {
				if _, ok := cov.Cover(shape, cfg.b); !ok {
					t.Errorf("m=%d b=%d: shape %s not covered", cfg.m, cfg.b, shape)
				}
			}
		}
	}
}

func dblpGraph(t *testing.T) *tss.Graph {
	t.Helper()
	g, err := tss.Derive(datagen.DBLPSchema(), datagen.DBLPSpec())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestXKeywordPrefersNonMVD(t *testing.T) {
	tg := dblpGraph(t)
	d, err := decomp.XKeyword(tg, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	mvds := 0
	for _, f := range d.Fragments {
		if f.HasMVD(tg) {
			mvds++
		}
	}
	nonMVDOnly := decomp.EnumerateFragments(tg, 2, false)
	_ = nonMVDOnly
	// The DBLP TSS graph needs some MVD fragments (e.g. the shared-parent
	// shapes), but the decomposition must not be mostly MVD.
	if mvds > len(d.Fragments)/2 {
		t.Fatalf("%d of %d fragments are MVD", mvds, len(d.Fragments))
	}
}

func TestXKeywordValidation(t *testing.T) {
	tg := tpchGraph(t)
	if _, err := decomp.XKeyword(tg, 0, 2); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := decomp.XKeyword(tg, 4, -1); err == nil {
		t.Fatal("b=-1 accepted")
	}
}

func TestPresetsShape(t *testing.T) {
	tg := tpchGraph(t)
	min := decomp.Minimal(tg)
	if len(min.Fragments) != tg.NumEdges() {
		t.Fatalf("minimal: %d fragments", len(min.Fragments))
	}
	mc := decomp.MinClust(tg)
	if !mc.Physical.ClusterBothDirections || mc.Physical.HashIndexes {
		t.Fatalf("MinClust physical = %+v", mc.Physical)
	}
	mi := decomp.MinNClustIndx(tg)
	if mi.Physical.ClusterBothDirections || !mi.Physical.HashIndexes {
		t.Fatalf("MinNClustIndx physical = %+v", mi.Physical)
	}
	mn := decomp.MinNClustNIndx(tg)
	if mn.Physical.ClusterBothDirections || mn.Physical.HashIndexes {
		t.Fatalf("MinNClustNIndx physical = %+v", mn.Physical)
	}
	comp := decomp.Complete(tg, 2)
	if len(comp.Fragments) <= len(min.Fragments) {
		t.Fatalf("Complete(%d) not larger than minimal", 2)
	}
	hasMVD := false
	for _, f := range comp.Fragments {
		if f.HasMVD(tg) {
			hasMVD = true
		}
	}
	if !hasMVD {
		t.Fatal("Complete must include MVD fragments")
	}
	// Combination unions fragments and physical flags.
	comb := decomp.Combination("combo", mc, mi)
	if len(comb.Fragments) != len(min.Fragments) {
		t.Fatalf("combination fragments = %d", len(comb.Fragments))
	}
	if !comb.Physical.ClusterBothDirections || !comb.Physical.HashIndexes {
		t.Fatalf("combination physical = %+v", comb.Physical)
	}
}

// wideGraph is a hub segment containing n leaf segments, one TSS edge
// each: a TSS graph with edge ids 0..n-1.
func wideGraph(t *testing.T, n int) *tss.Graph {
	t.Helper()
	sg := schema.New()
	spec := tss.Spec{Segments: []tss.SegmentSpec{{Name: "hub", Head: "hub"}}}
	steps := []error{sg.AddNode("hub", schema.All), sg.SetRoot("hub")}
	for i := 0; i < n; i++ {
		leaf := fmt.Sprintf("leaf%02d", i)
		steps = append(steps, sg.AddNode(leaf, schema.All), sg.AddEdge("hub", leaf, xmlgraph.Containment, 1))
		spec.Segments = append(spec.Segments, tss.SegmentSpec{Name: leaf, Head: leaf})
	}
	tg, err := tss.Derive(sg.MustBuild(steps...), spec)
	if err != nil {
		t.Fatal(err)
	}
	if tg.NumEdges() != n {
		t.Fatalf("derived %d edges, want %d", tg.NumEdges(), n)
	}
	return tg
}

// Walk keys hold 7 bits per step, edge ids up to 62: on a TSS graph with
// more edges the decomposition search and Cover must fail loudly instead
// of matching pieces through colliding keys.
func TestWideGraphRejected(t *testing.T) {
	if _, err := decomp.XKeyword(wideGraph(t, 63), 2, 0); err != nil {
		t.Fatalf("63 edges: %v", err)
	}
	tg := wideGraph(t, 64)
	if _, err := decomp.XKeyword(tg, 2, 0); err == nil {
		t.Fatal("XKeyword accepted a TSS graph with edge id 63")
	}
	// hub -> leaf63, covered by its own single-edge fragment under a
	// key that would collide with other walks.
	net := &cn.TSSNetwork{
		Occs:  []cn.TSSOcc{{Segment: "hub"}, {Segment: "leaf63"}},
		Edges: []cn.TSSEdgeRef{{From: 0, To: 1, EdgeID: 63}},
	}
	if _, ok := decomp.Cover(tg, net, decomp.Minimal(tg).Fragments, -1); ok {
		t.Fatal("Cover matched a network over edge id 63")
	}
}
