package cn_test

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cn"
	"repro/internal/datagen"
	"repro/internal/tss"
	"repro/internal/xmlgraph"
)

func mustReduce(t *testing.T, tg *tss.Graph, net *cn.Network) *cn.TSSNetwork {
	t.Helper()
	tn, err := cn.Reduce(tg, net)
	if err != nil {
		t.Fatalf("Reduce(%s): %v", net, err)
	}
	return tn
}

// The size-6 intro network reduces to person{john} <- lineitem -> product{vcr}.
func TestReduceIntroNetwork(t *testing.T) {
	in, ds := fig1Input(t, []string{"john", "vcr"}, 6)
	nets := generate(t, in)
	var target *cn.Network
	for _, n := range nets {
		s := n.String()
		if n.Size() == 6 && strings.Contains(s, "pdescr{vcr}") && strings.Contains(s, "supplier") {
			target = n
			break
		}
	}
	if target == nil {
		t.Fatal("intro network not found")
	}
	tn := mustReduce(t, ds.TSS, target)
	if len(tn.Occs) != 3 || tn.Size() != 2 {
		t.Fatalf("reduced to %s", tn)
	}
	segs := map[string]bool{}
	for _, o := range tn.Occs {
		segs[o.Segment] = true
	}
	for _, want := range []string{"person", "lineitem", "product"} {
		if !segs[want] {
			t.Fatalf("missing segment %s in %s", want, tn)
		}
	}
	if tn.Score() != 6 {
		t.Fatalf("score = %d, want 6 (the CN size)", tn.Score())
	}
	// Keyword constraints preserved with their schema nodes.
	found := 0
	for _, o := range tn.Occs {
		for _, k := range o.Keywords {
			switch {
			case k.Keyword == "john" && k.SchemaNode == "name" && o.Segment == "person":
				found++
			case k.Keyword == "vcr" && k.SchemaNode == "pdescr" && o.Segment == "product":
				found++
			}
		}
	}
	if found != 2 {
		t.Fatalf("keyword constraints lost: %s", tn)
	}
}

// §4's "TV, VCR" example: the CTSSNs of size up to Z=8 must include the
// part-to-part shapes the paper lists — the direct sub-part edge
// (CTSSN1), the shared-parent and chain shapes (CTSSN2/3), and the
// part <- lineitem <- order -> lineitem -> part shape (CTSSN4).
func TestCTSSNEnumeration(t *testing.T) {
	in, ds := fig1Input(t, []string{"tv", "vcr"}, 8)
	nets := generate(t, in)
	var canons []string
	seen := map[string]*cn.TSSNetwork{}
	for _, n := range nets {
		tn := mustReduce(t, ds.TSS, n)
		c := tn.Canon()
		if _, dup := seen[c]; !dup {
			seen[c] = tn
			canons = append(canons, c)
		}
	}
	// Locate the paper's shapes by structure.
	var direct, sharedParent, chain, viaOrder, viaProduct bool
	for _, tn := range seen {
		partOccs, liOccs, orderOccs, prodOccs := 0, 0, 0, 0
		for _, o := range tn.Occs {
			switch o.Segment {
			case "part":
				partOccs++
			case "lineitem":
				liOccs++
			case "order":
				orderOccs++
			case "product":
				prodOccs++
			}
		}
		switch {
		case tn.Size() == 1 && partOccs == 2:
			direct = true // CTSSN1: part{tv} -> part{vcr} (or mirrored)
		case tn.Size() == 2 && partOccs == 3 && sharedTail(tn):
			sharedParent = true // CTSSN2: tv <- X -> vcr
		case tn.Size() == 2 && partOccs == 3 && !sharedTail(tn):
			chain = true // CTSSN3: tv -> X -> vcr
		case tn.Size() == 4 && partOccs == 2 && liOccs == 2 && orderOccs == 1:
			viaOrder = true // CTSSN4: Pa <- L <- O -> L -> Pa
		case partOccs == 1 && prodOccs == 1 && liOccs >= 1:
			viaProduct = true // CTSSN5 analogue: TV part vs VCR product descr
		}
	}
	if !direct {
		t.Error("CTSSN1 (direct sub-part) missing")
	}
	if !sharedParent {
		t.Error("CTSSN2 (shared parent part) missing")
	}
	if !chain {
		t.Error("CTSSN3 (sub-part chain) missing")
	}
	if !viaOrder {
		t.Error("CTSSN4 (via order) missing")
	}
	if !viaProduct {
		t.Error("CTSSN5 analogue (part vs product descr) missing")
	}
	t.Logf("%d CNs reduced to %d distinct CTSSNs", len(nets), len(canons))
}

// sharedTail reports whether some occurrence has two outgoing edges
// (the <- X -> shape) rather than a directed chain.
func sharedTail(tn *cn.TSSNetwork) bool {
	outs := make(map[int]int)
	for _, e := range tn.Edges {
		outs[e.From]++
	}
	for _, c := range outs {
		if c >= 2 {
			return true
		}
	}
	return false
}

func TestReduceMergesIntraSegment(t *testing.T) {
	// name{john} <- person -> nation{us}: one TSS occurrence, no edges.
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	net := &cn.Network{
		Occs: []cn.Occ{
			{Schema: "name", Keywords: []string{"john"}},
			{Schema: "person"},
			{Schema: "nation", Keywords: []string{"us"}},
		},
		Edges: []cn.Edge{
			{From: 1, To: 0, Kind: xmlgraph.Containment},
			{From: 1, To: 2, Kind: xmlgraph.Containment},
		},
	}
	tn := mustReduce(t, ds.TSS, net)
	if len(tn.Occs) != 1 || tn.Size() != 0 {
		t.Fatalf("reduced to %s", tn)
	}
	if len(tn.Occs[0].Keywords) != 2 {
		t.Fatalf("merged occurrence keywords = %+v", tn.Occs[0].Keywords)
	}
}

func TestReduceRejectsKeywordOnDummy(t *testing.T) {
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	net := &cn.Network{
		Occs: []cn.Occ{{Schema: "supplier", Keywords: []string{"x"}}},
	}
	if _, err := cn.Reduce(ds.TSS, net); err == nil {
		t.Fatal("keyword on dummy accepted")
	}
}

func TestReduceAllGeneratedNetworks(t *testing.T) {
	// Every generated network for several keyword pairs must reduce
	// cleanly, and the reduction must be a tree over TSS occurrences.
	pairs := [][]string{{"john", "vcr"}, {"tv", "vcr"}, {"us", "dvd"}, {"mike", "1005"}}
	for _, kws := range pairs {
		in, ds := fig1Input(t, kws, 8)
		for _, n := range generate(t, in) {
			tn := mustReduce(t, ds.TSS, n)
			if tn.Size() != len(tn.Occs)-1 {
				t.Fatalf("%v: not a tree: %s", kws, tn)
			}
			if tn.Size() > n.Size() {
				t.Fatalf("%v: CTSSN larger than CN: %s vs %s", kws, tn, n)
			}
			// Edge endpoints must match the TSS edge's segments.
			for _, e := range tn.Edges {
				te := ds.TSS.Edge(e.EdgeID)
				if tn.Occs[e.From].Segment != te.From || tn.Occs[e.To].Segment != te.To {
					t.Fatalf("%v: edge %v does not match TSS edge %s", kws, e, te.PathString())
				}
			}
		}
	}
}

func TestReduceDBLPAuthorPair(t *testing.T) {
	// Author-Paper-Author via authorref dummies: 2 TSS edges.
	ds, err := datagen.DBLP(datagen.DefaultDBLPParams())
	if err != nil {
		t.Fatal(err)
	}
	net := &cn.Network{
		Occs: []cn.Occ{
			{Schema: "aname", Keywords: []string{"alice"}},
			{Schema: "author"},
			{Schema: "authorref"},
			{Schema: "paper"},
			{Schema: "authorref"},
			{Schema: "author"},
			{Schema: "aname", Keywords: []string{"bob"}},
		},
		Edges: []cn.Edge{
			{From: 1, To: 0, Kind: xmlgraph.Containment},
			{From: 2, To: 1, Kind: xmlgraph.Reference},
			{From: 3, To: 2, Kind: xmlgraph.Containment},
			{From: 3, To: 4, Kind: xmlgraph.Containment},
			{From: 4, To: 5, Kind: xmlgraph.Reference},
			{From: 5, To: 6, Kind: xmlgraph.Containment},
		},
	}
	tn := mustReduce(t, ds.TSS, net)
	if len(tn.Occs) != 3 || tn.Size() != 2 {
		t.Fatalf("reduced to %s", tn)
	}
	if tn.Score() != 6 {
		t.Fatalf("score = %d", tn.Score())
	}
}

// perRootCanon renders every root's tree from scratch — the definition
// Canon's shared subtree renderings must reproduce.
func perRootCanon(t *cn.TSSNetwork) string {
	label := func(o cn.TSSOcc) string {
		if o.Free() {
			return o.Segment
		}
		var parts []string
		for _, k := range o.Keywords {
			parts = append(parts, k.Keyword+"@"+k.SchemaNode)
		}
		return o.Segment + "{" + strings.Join(parts, ",") + "}"
	}
	var from func(v, parent int) string
	from = func(v, parent int) string {
		var subs []string
		for _, e := range t.Edges {
			if e.From != v && e.To != v {
				continue
			}
			other, dir := e.To, ">"
			if e.To == v {
				other, dir = e.From, "<"
			}
			if other != parent {
				subs = append(subs, dir+strconv.Itoa(e.EdgeID)+from(other, v))
			}
		}
		sort.Strings(subs)
		return label(t.Occs[v]) + "(" + strings.Join(subs, "|") + ")"
	}
	best := ""
	for r := range t.Occs {
		if s := from(r, -1); best == "" || s < best {
			best = s
		}
	}
	return best
}

func TestCanonMatchesPerRootRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	segs := []string{"a", "b", "c"}
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(8)
		net := &cn.TSSNetwork{}
		for v := 0; v < n; v++ {
			o := cn.TSSOcc{Segment: segs[rng.Intn(len(segs))]}
			if rng.Intn(4) == 0 {
				o.Keywords = []cn.KeywordAt{{Keyword: "k", SchemaNode: segs[rng.Intn(len(segs))]}}
			}
			net.Occs = append(net.Occs, o)
			if v > 0 {
				e := cn.TSSEdgeRef{From: rng.Intn(v), To: v, EdgeID: rng.Intn(3)}
				if rng.Intn(2) == 0 {
					e.From, e.To = e.To, e.From
				}
				net.Edges = append(net.Edges, e)
			}
		}
		if got, want := net.Canon(), perRootCanon(net); got != want {
			t.Fatalf("%s: Canon %q, per-root rendering %q", net, got, want)
		}
	}
}
