package rank_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/cn"
	"repro/internal/exec"
	"repro/internal/kwindex"
	"repro/internal/rank"
)

func TestRegistry(t *testing.T) {
	for _, name := range append([]string{""}, rank.Names()...) {
		sc, err := rank.New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if name != "" && sc.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, sc.Name())
		}
		if !rank.Valid(name) {
			t.Fatalf("Valid(%q) = false", name)
		}
	}
	if _, err := rank.New("bm25"); err == nil {
		t.Fatal("unknown scorer did not error")
	}
	if rank.Valid("bm25") {
		t.Fatal("Valid accepted an unknown scorer")
	}
	if !rank.IsDefault(nil) || !rank.IsDefault(rank.EdgeCount{}) {
		t.Fatal("nil/EdgeCount must be default")
	}
	if rank.IsDefault(rank.Weighted{}) || rank.IsDefault(rank.Diversified{}) {
		t.Fatal("non-default scorer reported as default")
	}
}

// res builds a synthetic result: score, canonical sequence, bindings,
// and one keyword occurrence per (keyword, schemaNode) pair.
func res(score, seq int, bind []int64, occs ...cn.KeywordAt) exec.Result {
	net := &cn.TSSNetwork{}
	for _, ka := range occs {
		net.Occs = append(net.Occs, cn.TSSOcc{Segment: "s", Keywords: []cn.KeywordAt{ka}})
	}
	return exec.Result{Net: net, Bind: bind, Score: score, Ord: exec.MakeOrd(0, seq)}
}

func ords(rs []exec.Result) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = r.Ord
	}
	return out
}

func TestEdgeCountRestoresCanonicalOrder(t *testing.T) {
	a := res(2, 0, []int64{1})
	b := res(2, 1, []int64{2})
	c := res(3, 0, []int64{3})
	got := rank.EdgeCount{}.Rank(rank.Context{}, []exec.Result{c, b, a}, 0)
	if !reflect.DeepEqual(ords(got), []int64{a.Ord, b.Ord, c.Ord}) {
		t.Fatalf("order = %x", ords(got))
	}
	got = rank.EdgeCount{}.Rank(rank.Context{}, []exec.Result{c, b, a}, 2)
	if len(got) != 2 || got[0].Ord != a.Ord {
		t.Fatalf("truncation broke: %x", ords(got))
	}
}

// fakeIndex is a kwindex.Source with fixed per-(keyword, schema node)
// TO counts, for exercising the Weighted scorer's rarity weighting: the
// containing list of kw holds df postings on each schema node, TOs
// 0..df-1. The scorer derives TO sets from ContainingList alone, so
// SchemaNodes and TOSet panic.
type fakeIndex struct {
	tos      map[[2]string]int // (kw, schemaNode) -> df
	postings int
}

func (f fakeIndex) ContainingList(kw string) []kwindex.Posting {
	var ps []kwindex.Posting
	for key, df := range f.tos {
		for i := 0; key[0] == kw && i < df; i++ {
			ps = append(ps, kwindex.Posting{TO: int64(i), SchemaNode: key[1]})
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].TO != ps[j].TO {
			return ps[i].TO < ps[j].TO
		}
		return ps[i].SchemaNode < ps[j].SchemaNode
	})
	return ps
}
func (f fakeIndex) SchemaNodes(string) []string         { panic("SchemaNodes called") }
func (f fakeIndex) TOSet(string, string) map[int64]bool { panic("TOSet called") }
func (f fakeIndex) NumPostings() int                    { return f.postings }
func (f fakeIndex) NumKeywords() int                    { return len(f.tos) }

// Two equal-sized results: the one whose keyword is rare must outrank
// the one reached through a ubiquitous keyword, flipping the canonical
// order; exact-cost ties keep it.
func TestWeightedRarityGolden(t *testing.T) {
	ix := fakeIndex{postings: 200, tos: map[[2]string]int{
		{"common", "n"}: 100,
		{"rare", "n"}:   1,
	}}
	rc := rank.Context{Index: ix, Keywords: []string{"common", "rare"}}
	viaCommon := res(2, 0, []int64{1}, cn.KeywordAt{Keyword: "common", SchemaNode: "n"})
	viaRare := res(2, 1, []int64{2}, cn.KeywordAt{Keyword: "rare", SchemaNode: "n"})
	got := rank.Weighted{}.Rank(rc, []exec.Result{viaCommon, viaRare}, 0)
	if !reflect.DeepEqual(ords(got), []int64{viaRare.Ord, viaCommon.Ord}) {
		t.Fatalf("rarity did not outrank: order = %x", ords(got))
	}
	// Identical occurrences cost identically: canonical order is the tie-break.
	twinA := res(2, 0, []int64{1}, cn.KeywordAt{Keyword: "common", SchemaNode: "n"})
	twinB := res(2, 1, []int64{2}, cn.KeywordAt{Keyword: "common", SchemaNode: "n"})
	got = rank.Weighted{}.Rank(rc, []exec.Result{twinB, twinA}, 0)
	if !reflect.DeepEqual(ords(got), []int64{twinA.Ord, twinB.Ord}) {
		t.Fatalf("cost tie broke canonical order: %x", ords(got))
	}
}

// Greedy diversification: after showing a result, rebinding the same
// target objects costs 2 per repeat, so a fresh-region result of worse
// edge count jumps ahead of a near-duplicate of the best one.
func TestDiversifiedGolden(t *testing.T) {
	best := res(2, 0, []int64{1, 2})
	dup := res(2, 1, []int64{1, 2})   // same TOs as best
	fresh := res(3, 0, []int64{3, 4}) // worse score, new region
	in := []exec.Result{best, dup, fresh}

	got := rank.Diversified{}.Rank(rank.Context{}, append([]exec.Result(nil), in...), 0)
	if !(got[0].Score == 2 && reflect.DeepEqual(got[0].Bind, []int64{1, 2}) &&
		got[1].Score == 3 && got[2].Score == 2) {
		t.Fatalf("diversified order wrong: %+v (want best, fresh, dup)", got)
	}
	// Truncation happens after diversification, keeping the diverse head.
	got = rank.Diversified{}.Rank(rank.Context{}, append([]exec.Result(nil), in...), 2)
	if len(got) != 2 || got[1].Score != 3 {
		t.Fatalf("truncated diversified = %+v", got)
	}
}
