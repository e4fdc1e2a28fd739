package cn_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/cn"
	"repro/internal/datagen"
	"repro/internal/kwindex"
	"repro/internal/xmlgraph"
)

func fig1Input(t *testing.T, keywords []string, z int) (cn.Input, *datagen.Dataset) {
	t.Helper()
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	ix := kwindex.Build(ds.Obj)
	nodes := make(map[string][]string)
	for _, k := range keywords {
		nodes[k] = ix.SchemaNodes(k)
	}
	return cn.Input{Schema: ds.Schema, Keywords: keywords, SchemaNodesOf: nodes, MaxSize: z}, ds
}

func generate(t *testing.T, in cn.Input) []*cn.Network {
	t.Helper()
	nets, err := cn.Generate(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	return nets
}

func TestGenerateValidation(t *testing.T) {
	if _, err := cn.Generate(context.Background(), cn.Input{}); err == nil {
		t.Fatal("empty input accepted")
	}
	in, _ := fig1Input(t, []string{"john"}, 2)
	in.MaxSize = -1
	if _, err := cn.Generate(context.Background(), in); err != nil {
		// negative MaxSize must error
	} else {
		t.Fatal("negative MaxSize accepted")
	}
	in2, _ := fig1Input(t, []string{"john"}, 2)
	in2.SchemaNodesOf["john"] = []string{"nosuchnode"}
	if _, err := cn.Generate(context.Background(), in2); err == nil {
		t.Fatal("unknown schema node accepted")
	}
}

func TestGenerateMissingKeywordYieldsNothing(t *testing.T) {
	in, _ := fig1Input(t, []string{"john", "zzzznope"}, 6)
	nets := generate(t, in)
	if len(nets) != 0 {
		t.Fatalf("networks for absent keyword: %d", len(nets))
	}
}

// The introduction's "John, VCR" example: the best result has size 6
// (John supplied the lineitem whose product description mentions VCR) and
// the next interesting one size 8 (VCR is a sub-part of a part John
// supplied). The corresponding CNs must be generated.
func TestIntroJohnVCRNetworks(t *testing.T) {
	in, _ := fig1Input(t, []string{"john", "vcr"}, 8)
	nets := generate(t, in)
	if len(nets) == 0 {
		t.Fatal("no networks")
	}
	// Sizes must be non-decreasing.
	for i := 1; i < len(nets); i++ {
		if nets[i-1].Size() > nets[i].Size() {
			t.Fatal("networks not sorted by size")
		}
	}
	var has6, has8 bool
	for _, n := range nets {
		s := n.String()
		if n.Size() == 6 && strings.Contains(s, "pdescr{vcr}") && strings.Contains(s, "name{john}") {
			has6 = true
		}
		if n.Size() == 8 && strings.Contains(s, "pname{vcr}") && strings.Contains(s, "sub") && strings.Contains(s, "name{john}") {
			has8 = true
		}
	}
	if !has6 {
		t.Error("size-6 product-descr network missing")
	}
	if !has8 {
		t.Error("size-8 sub-part network missing")
	}
	// Smallest network connecting john and vcr needs at least 6 edges in
	// this schema (name-person-supplier-lineitem-line-product-descr).
	if nets[0].Size() < 6 {
		t.Errorf("smallest network size %d: %s", nets[0].Size(), nets[0])
	}
}

func TestGenerateNonRedundant(t *testing.T) {
	in, _ := fig1Input(t, []string{"tv", "vcr"}, 8)
	nets := generate(t, in)
	seen := make(map[string]bool)
	for _, n := range nets {
		if err := n.Validate(); err != nil {
			t.Fatalf("invalid network %s: %v", n, err)
		}
		c := n.Canon()
		if seen[c] {
			t.Fatalf("duplicate network %s", n)
		}
		seen[c] = true
		if n.Size() > 8 {
			t.Fatalf("oversized network %s", n)
		}
		for _, l := range n.Leaves() {
			if n.Occs[l].Free() {
				t.Fatalf("free leaf in %s", n)
			}
		}
	}
}

// XML-specific pruning: a part and a product can never connect through a
// single lineitem, because "line" is a choice node with one alternative.
func TestChoicePruning(t *testing.T) {
	in, _ := fig1Input(t, []string{"tv", "vcr"}, 9)
	nets := generate(t, in)
	for _, n := range nets {
		// Count outgoing edges of each line occurrence.
		outs := make(map[int]int)
		for _, e := range n.Edges {
			if n.Occs[e.From].Schema == "line" {
				outs[e.From]++
			}
		}
		for occ, c := range outs {
			if c > 1 {
				t.Fatalf("choice occurrence %d has %d alternatives in %s", occ, c, n)
			}
		}
	}
}

// Two occurrences may not both contain the same occurrence by containment
// (an element has a single parent).
func TestContainmentParentPruning(t *testing.T) {
	in, _ := fig1Input(t, []string{"us", "vcr"}, 9)
	nets := generate(t, in)
	for _, n := range nets {
		parents := make(map[int]int)
		for _, e := range n.Edges {
			if e.Kind == xmlgraph.Containment {
				parents[e.To]++
			}
		}
		for occ, c := range parents {
			if c > 1 {
				t.Fatalf("occurrence %d has %d containment parents in %s", occ, c, n)
			}
		}
	}
}

// maxOccurs pruning: person -> name has maxOccurs 1, so no network may
// give one person occurrence two name children.
func TestMaxOccursPruning(t *testing.T) {
	in, _ := fig1Input(t, []string{"john", "mike"}, 8)
	nets := generate(t, in)
	if len(nets) == 0 {
		t.Fatal("no networks for john/mike")
	}
	for _, n := range nets {
		kids := make(map[int]int)
		for _, e := range n.Edges {
			if n.Occs[e.From].Schema == "person" && n.Occs[e.To].Schema == "name" {
				kids[e.From]++
			}
		}
		for occ, c := range kids {
			if c > 1 {
				t.Fatalf("person occurrence %d has %d name children in %s", occ, c, n)
			}
		}
	}
}

// Completeness (paper §4: the generator is complete): every MTNN of the
// Figure 1 instance with size ≤ Z belongs to some generated CN. For two
// keywords an MTNN is a simple undirected path between nodes containing
// them, so brute-force enumeration is feasible.
func TestGenerateComplete(t *testing.T) {
	const z = 8
	keywords := []string{"john", "vcr"}
	in, ds := fig1Input(t, keywords, z)
	nets := generate(t, in)
	canon := make(map[string]bool)
	for _, n := range nets {
		canon[n.Canon()] = true
	}

	containing := func(kw string) []xmlgraph.NodeID {
		var out []xmlgraph.NodeID
		for _, id := range ds.Data.Nodes() {
			n := ds.Data.Node(id)
			toks := append(kwindex.Tokenize(n.Label), kwindex.Tokenize(n.Value)...)
			for _, tk := range toks {
				if tk == kw {
					out = append(out, id)
					break
				}
			}
		}
		return out
	}
	k1Nodes, k2Nodes := containing(keywords[0]), containing(keywords[1])
	if len(k1Nodes) == 0 || len(k2Nodes) == 0 {
		t.Fatal("fixture lost its keywords")
	}

	// Enumerate all simple paths from k1 nodes to k2 nodes with ≤ z edges.
	checked := 0
	var dfs func(path []xmlgraph.NodeID, onPath map[xmlgraph.NodeID]bool, target map[xmlgraph.NodeID]bool)
	toNetwork := func(path []xmlgraph.NodeID) *cn.Network {
		net := &cn.Network{}
		for i, id := range path {
			kws := []string{}
			if i == 0 {
				kws = append(kws, keywords[0])
			}
			if i == len(path)-1 {
				kws = append(kws, keywords[1])
			}
			sort.Strings(kws)
			net.Occs = append(net.Occs, cn.Occ{Schema: ds.Data.Node(id).Type, Keywords: kws})
		}
		for i := 0; i+1 < len(path); i++ {
			from, to := path[i], path[i+1]
			found := false
			for _, e := range ds.Data.Out(from) {
				if e.To == to {
					net.Edges = append(net.Edges, cn.Edge{From: i, To: i + 1, Kind: e.Kind})
					found = true
					break
				}
			}
			if !found {
				for _, e := range ds.Data.In(from) {
					if e.From == to {
						net.Edges = append(net.Edges, cn.Edge{From: i + 1, To: i, Kind: e.Kind})
						break
					}
				}
			}
		}
		return net
	}
	dfs = func(path []xmlgraph.NodeID, onPath map[xmlgraph.NodeID]bool, target map[xmlgraph.NodeID]bool) {
		cur := path[len(path)-1]
		if target[cur] && len(path) > 1 {
			net := toNetwork(path)
			checked++
			if !canon[net.Canon()] {
				t.Fatalf("MTNN path %v (size %d) not covered by any CN: %s", path, net.Size(), net)
			}
			// A path may continue through a keyword node, so no return.
		}
		if len(path)-1 >= z {
			return
		}
		for _, nb := range ds.Data.UndirectedNeighbors(cur) {
			if onPath[nb.Node] {
				continue
			}
			onPath[nb.Node] = true
			dfs(append(path, nb.Node), onPath, target)
			delete(onPath, nb.Node)
		}
	}
	target := make(map[xmlgraph.NodeID]bool)
	for _, id := range k2Nodes {
		target[id] = true
	}
	for _, s := range k1Nodes {
		dfs([]xmlgraph.NodeID{s}, map[xmlgraph.NodeID]bool{s: true}, target)
	}
	if checked == 0 {
		t.Fatal("brute force found no MTNNs; test is vacuous")
	}
	t.Logf("verified %d brute-force MTNNs against %d CNs", checked, len(nets))
}

func TestMaxNetworksCap(t *testing.T) {
	in, _ := fig1Input(t, []string{"tv", "vcr"}, 8)
	in.MaxNetworks = 3
	nets := generate(t, in)
	if len(nets) != 3 {
		t.Fatalf("cap ignored: %d networks", len(nets))
	}
}

func TestSingleKeywordSingleNode(t *testing.T) {
	in, _ := fig1Input(t, []string{"john"}, 4)
	nets := generate(t, in)
	if len(nets) == 0 {
		t.Fatal("no networks")
	}
	if nets[0].Size() != 0 {
		t.Fatalf("smallest single-keyword network has size %d", nets[0].Size())
	}
}
