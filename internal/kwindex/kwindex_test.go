package kwindex_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/kwindex"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"set of VCR and DVD", []string{"set", "of", "vcr", "and", "dvd"}},
		{"John", []string{"john"}},
		{"", nil},
		{"  --  ", nil},
		{"TPC-H 2001", []string{"tpc", "h", "2001"}},
		{"ÜberGraph", []string{"übergraph"}},
	}
	for _, c := range cases {
		if got := kwindex.Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func buildFig1Index(t *testing.T) (*kwindex.Index, *datagen.Dataset) {
	t.Helper()
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	return kwindex.Build(ds.Obj), ds
}

func TestContainingListJohn(t *testing.T) {
	ix, ds := buildFig1Index(t)
	ps := ix.ContainingList("John")
	if len(ps) != 1 {
		t.Fatalf("postings = %+v, want 1", ps)
	}
	p := ps[0]
	if p.SchemaNode != "name" {
		t.Fatalf("schema node = %q", p.SchemaNode)
	}
	if ds.Obj.TO(p.TO).Segment != "person" {
		t.Fatalf("TO segment = %q", ds.Obj.TO(p.TO).Segment)
	}
}

func TestContainingListVCR(t *testing.T) {
	ix, _ := buildFig1Index(t)
	// VCR occurs in two part names and one product description.
	ps := ix.ContainingList("VCR")
	if len(ps) != 3 {
		t.Fatalf("postings = %+v, want 3", ps)
	}
	nodes := ix.SchemaNodes("vcr")
	want := []string{"pdescr", "pname"}
	if !reflect.DeepEqual(nodes, want) {
		t.Fatalf("schema nodes = %v, want %v", nodes, want)
	}
}

func TestCaseInsensitive(t *testing.T) {
	ix, _ := buildFig1Index(t)
	if len(ix.ContainingList("vcr")) != len(ix.ContainingList("VCR")) {
		t.Fatal("case sensitivity leaked")
	}
}

func TestTagsAreIndexed(t *testing.T) {
	ix, _ := buildFig1Index(t)
	// "quantity" appears only as a tag; keywords(n) covers tag and value.
	if len(ix.ContainingList("quantity")) == 0 {
		t.Fatal("tag tokens not indexed")
	}
}

func TestDummyNodesSkipped(t *testing.T) {
	ix, _ := buildFig1Index(t)
	// "supplier" and "sub" are dummy tags: no target object contains them.
	if got := ix.ContainingList("supplier"); len(got) != 0 {
		t.Fatalf("dummy tag indexed: %+v", got)
	}
	if got := ix.ContainingList("sub"); len(got) != 0 {
		t.Fatalf("dummy tag indexed: %+v", got)
	}
}

func TestMultiTokenKeyword(t *testing.T) {
	ix, _ := buildFig1Index(t)
	// "DVD error" matches only the service_call descr node.
	ps := ix.ContainingList("DVD error")
	if len(ps) != 1 || ps[0].SchemaNode != "scdescr" {
		t.Fatalf("postings = %+v", ps)
	}
	// Both tokens occur in the graph, but never together except there.
	if len(ix.ContainingList("dvd")) < 2 {
		t.Fatal("test premise broken: dvd should occur in several nodes")
	}
}

func TestTOSetFilter(t *testing.T) {
	ix, ds := buildFig1Index(t)
	all := ix.TOSet("vcr", "")
	if len(all) != 3 {
		t.Fatalf("TOSet(vcr) = %v", all)
	}
	onlyNames := ix.TOSet("vcr", "pname")
	if len(onlyNames) != 2 {
		t.Fatalf("TOSet(vcr, pname) = %v", onlyNames)
	}
	for to := range onlyNames {
		if ds.Obj.TO(to).Segment != "part" {
			t.Fatalf("TO %d not a part", to)
		}
	}
}

func TestPostingsSortedAndCounted(t *testing.T) {
	ix, _ := buildFig1Index(t)
	ps := ix.ContainingList("vcr")
	for i := 1; i < len(ps); i++ {
		if ps[i-1].TO > ps[i].TO {
			t.Fatal("postings not sorted by TO")
		}
	}
	if ix.NumKeywords() == 0 || ix.NumPostings() < ix.NumKeywords() {
		t.Fatalf("counts: %d keywords, %d postings", ix.NumKeywords(), ix.NumPostings())
	}
	if ix.ContainingList("") != nil {
		t.Fatal("empty keyword returned postings")
	}
}

func TestValueTokenDedupedPerNode(t *testing.T) {
	ix, _ := buildFig1Index(t)
	// "US" occurs once per nation node even though tokenizer could see it
	// twice in pathological values; here: two persons => two postings.
	if got := len(ix.ContainingList("US")); got != 2 {
		t.Fatalf("US postings = %d, want 2", got)
	}
}

// sortedKeys is the reference ascending form of a TOSetFromList map.
func sortedKeys(set map[int64]bool) []int64 {
	out := make([]int64, 0, len(set))
	for to := range set {
		out = append(out, to)
	}
	slices.Sort(out)
	return out
}

// SplitList is the sorted form of DistinctSchemaNodes and
// TOSetFromList: one ascending, duplicate-free TO set per schema node.
func TestTOsSortedDistinct(t *testing.T) {
	ix, _ := buildFig1Index(t)
	keywords := append(ix.Terms(), "set dvd", "vcr tv", "absent")
	// Two postings of one TO on one schema node, one on another.
	synthetic := []kwindex.Posting{
		{TO: 1, Node: 1, SchemaNode: "a"},
		{TO: 1, Node: 2, SchemaNode: "a"},
		{TO: 1, Node: 3, SchemaNode: "b"},
		{TO: 4, Node: 5, SchemaNode: "b"},
	}
	lists := [][]kwindex.Posting{synthetic}
	for _, k := range keywords {
		lists = append(lists, ix.ContainingList(k))
	}
	for _, ps := range lists {
		nodes, tos := kwindex.SplitList(ps)
		if want := kwindex.DistinctSchemaNodes(ps); !slices.Equal(nodes, want) || len(tos) != len(nodes) {
			t.Fatalf("SplitList nodes = %v (%d sets), want %v", nodes, len(tos), want)
		}
		for i, n := range nodes {
			if want := sortedKeys(kwindex.TOSetFromList(ps, n)); !slices.Equal(tos[i], want) {
				t.Fatalf("SplitList set of %q = %v, want %v", n, tos[i], want)
			}
		}
	}
	nodes, tos := kwindex.SplitList(synthetic)
	if !slices.Equal(nodes, []string{"a", "b"}) || !slices.Equal(tos[0], []int64{1}) || !slices.Equal(tos[1], []int64{1, 4}) {
		t.Fatalf("SplitList(synthetic) = %v %v, want [a b] [[1] [1 4]]", nodes, tos)
	}
}

func TestIntersectTOs(t *testing.T) {
	a, b := []int64{1, 3, 5, 7}, []int64{2, 3, 4, 7, 9}
	if got := kwindex.IntersectTOs(a, b); !slices.Equal(got, []int64{3, 7}) {
		t.Fatalf("IntersectTOs = %v, want [3 7]", got)
	}
	if got := kwindex.IntersectTOs([]int64{1}, []int64{2}); got == nil || len(got) != 0 {
		t.Fatalf("disjoint IntersectTOs = %#v, want empty and non-nil", got)
	}
	for _, to := range a {
		if !kwindex.HasTO(a, to) || kwindex.HasTO(a, to+1) {
			t.Fatalf("HasTO wrong around %d in %v", to, a)
		}
	}
	if kwindex.HasTO(nil, 0) {
		t.Fatal("HasTO found a TO in the empty set")
	}
}
