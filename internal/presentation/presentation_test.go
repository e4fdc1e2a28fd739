package presentation_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/presentation"
)

func fig1System(t *testing.T) *core.System {
	t.Helper()
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.LoadPrepared(&core.Prepared{Schema: ds.Schema, TSS: ds.TSS, Data: ds.Data, Obj: ds.Obj},
		core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// usVCRNetwork finds the Figure 2/3 network person{us}—lineitem—part—part{vcr}.
func usVCRNetwork(t *testing.T, s *core.System) int {
	t.Helper()
	nets, err := s.Networks([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	for i, tn := range nets {
		segs := map[string]int{}
		for _, o := range tn.Occs {
			segs[o.Segment]++
		}
		if len(tn.Occs) == 4 && segs["person"] == 1 && segs["lineitem"] == 1 && segs["part"] == 2 {
			return i
		}
	}
	t.Fatal("figure-3 network not found")
	return -1
}

func buildPG(t *testing.T, s *core.System, sess *presentation.Session) *presentation.Graph {
	t.Helper()
	nets, err := s.Networks([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := sess.Build(nets[usVCRNetwork(t, s)])
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The Figure 3 scenario: the initial graph is one MTTON; expanding the
// lineitem occurrence displays both lineitems connected to the person
// and TV part; contracting back to one lineitem restores a single tree.
func TestFigure3ExpandContract(t *testing.T) {
	s := fig1System(t)
	sess := s.PresentationSession(nil)
	g := buildPG(t, s, sess)

	if g.NumDisplayed() != 4 {
		t.Fatalf("initial PG has %d nodes, want 4", g.NumDisplayed())
	}
	// Locate the lineitem occurrence.
	liOcc := -1
	for i, o := range g.Net.Occs {
		if o.Segment == "lineitem" {
			liOcc = i
		}
	}
	added, err := g.Expand(liOcc, presentation.ExpandOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Both l1 and l2 reference the TV part: one is displayed already,
	// the other must be added.
	if added != 1 {
		t.Fatalf("expand added %d lineitems, want 1", added)
	}
	if got := len(g.Displayed(liOcc)); got != 2 {
		t.Fatalf("lineitems displayed = %d, want 2", got)
	}
	if !g.Expanded[liOcc] {
		t.Fatal("occurrence not marked expanded")
	}
	// The person and parts stay as they were (minimal expansion reuses
	// displayed neighbors).
	for i, o := range g.Net.Occs {
		if i != liOcc && len(g.Displayed(i)) != 1 {
			t.Fatalf("occurrence %d (%s) displays %d nodes, want 1", i, o.Segment, len(g.Displayed(i)))
		}
	}

	// Contract back to the first lineitem.
	keep := g.Displayed(liOcc)[0]
	if err := g.Contract(liOcc, keep); err != nil {
		t.Fatal(err)
	}
	if got := len(g.Displayed(liOcc)); got != 1 {
		t.Fatalf("after contraction: %d lineitems", got)
	}
	if g.NumDisplayed() != 4 {
		t.Fatalf("after contraction PG has %d nodes, want 4", g.NumDisplayed())
	}
	if g.Expanded[liOcc] {
		t.Fatal("occurrence still marked expanded")
	}
}

// Expanding the VCR part occurrence displays both VCR sub-parts.
func TestExpandKeywordOccurrence(t *testing.T) {
	s := fig1System(t)
	sess := s.PresentationSession(nil)
	g := buildPG(t, s, sess)
	vcrOcc := -1
	for i, o := range g.Net.Occs {
		for _, k := range o.Keywords {
			if k.Keyword == "vcr" {
				vcrOcc = i
			}
		}
	}
	if vcrOcc < 0 {
		t.Fatal("vcr occurrence missing")
	}
	if _, err := g.Expand(vcrOcc, presentation.ExpandOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := len(g.Displayed(vcrOcc)); got != 2 {
		t.Fatalf("vcr parts displayed = %d, want 2", got)
	}
}

func TestExpandMaxNodes(t *testing.T) {
	s := fig1System(t)
	sess := s.PresentationSession(nil)
	g := buildPG(t, s, sess)
	liOcc := -1
	for i, o := range g.Net.Occs {
		if o.Segment == "lineitem" {
			liOcc = i
		}
	}
	added, err := g.Expand(liOcc, presentation.ExpandOptions{MaxNodes: 0})
	if err != nil {
		t.Fatal(err)
	}
	if added < 1 {
		t.Fatalf("added = %d", added)
	}
}

// Every displayed node must lie on an MTTON of displayed nodes
// (property (c)) after arbitrary navigation.
func TestPropertyCInvariant(t *testing.T) {
	s := fig1System(t)
	sess := s.PresentationSession(nil)
	g := buildPG(t, s, sess)
	for occ := range g.Net.Occs {
		if _, err := g.Expand(occ, presentation.ExpandOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Active sets stay ascending and duplicate-free: Expand and Contract
	// test membership by binary search.
	for i, set := range g.Active {
		if !slices.IsSorted(set) || len(slices.Compact(slices.Clone(set))) != len(set) {
			t.Fatalf("Active[%d] = %v, want ascending without duplicates", i, set)
		}
	}
	// Validate: every displayed (occ, TO) appears in some full result
	// whose bindings are all displayed.
	all, err := s.QueryAll([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	canon := g.Net.Canon()
	supported := make(map[int]map[int64]bool)
	for i := range g.Net.Occs {
		supported[i] = map[int64]bool{}
	}
	for _, r := range all {
		if r.Net.Canon() != canon {
			continue
		}
		inPG := true
		for i, to := range r.Bind {
			if !slices.Contains(g.Active[i], to) {
				inPG = false
				break
			}
		}
		if inPG {
			for i, to := range r.Bind {
				supported[i][to] = true
			}
		}
	}
	for i := range g.Net.Occs {
		for _, to := range g.Displayed(i) {
			if !supported[i][to] {
				t.Fatalf("displayed node occ=%d to=%d lies on no displayed MTTON", i, to)
			}
		}
	}
}

// The three probe sets of Figure 16(b) must produce the same expansions.
func TestProbeSetEquivalence(t *testing.T) {
	s := fig1System(t)
	variants := map[string]*presentation.Session{
		"combination": s.PresentationSession(nil),
		"minimal":     s.PresentationSession(s.MinimalFragments()),
		"inlined":     s.PresentationSession(s.InlinedFragments()),
	}
	var want []int64
	for name, sess := range variants {
		g := buildPG(t, s, sess)
		liOcc := -1
		for i, o := range g.Net.Occs {
			if o.Segment == "lineitem" {
				liOcc = i
			}
		}
		if _, err := g.Expand(liOcc, presentation.ExpandOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := g.Displayed(liOcc)
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s displayed %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s displayed %v, want %v", name, got, want)
			}
		}
	}
}

func TestErrorPaths(t *testing.T) {
	s := fig1System(t)
	sess := s.PresentationSession(nil)
	g := buildPG(t, s, sess)
	if _, err := g.Expand(-1, presentation.ExpandOptions{}); err == nil {
		t.Fatal("bad occurrence accepted")
	}
	if err := g.Contract(0, 999999); err == nil {
		t.Fatal("undisplayed keep accepted")
	}
	// Building a PG for a resultless network fails.
	nets, err := s.Networks([]string{"mike", "tv"})
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	for _, tn := range nets {
		if _, err := sess.Build(tn); err != nil {
			failed = true
			if !strings.Contains(err.Error(), "no results") {
				t.Fatalf("unexpected error: %v", err)
			}
		}
	}
	_ = failed // some networks may have results; the loop checks error text
}
