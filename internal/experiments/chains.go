package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/cn"
	"repro/internal/tss"
)

// AuthorChain builds the CTSSN of the §7 expansion experiment:
//
//	Author{a1} <- Paper -> Paper -> ... -> Paper -> Author{a2}
//
// with size-1 papers in a citation chain; the CTSSN size (TSS edges) is
// papers + 1. size must be at least 2 (one paper, two authors).
func AuthorChain(tg *tss.Graph, a1, a2 string, size int) (*cn.TSSNetwork, error) {
	if size < 2 {
		return nil, fmt.Errorf("experiments: chain size %d < 2", size)
	}
	authorEdge, citeEdge := -1, -1
	for _, e := range tg.Edges() {
		switch e.PathString() {
		case "paper>authorref>author":
			authorEdge = e.ID
		case "paper>cite>paper":
			citeEdge = e.ID
		}
	}
	if authorEdge < 0 || citeEdge < 0 {
		return nil, fmt.Errorf("experiments: TSS graph is not the DBLP graph")
	}
	papers := size - 1
	t := &cn.TSSNetwork{}
	t.Occs = append(t.Occs, cn.TSSOcc{
		Segment:  "author",
		Keywords: []cn.KeywordAt{{Keyword: a1, SchemaNode: "aname"}},
	})
	for i := 0; i < papers; i++ {
		t.Occs = append(t.Occs, cn.TSSOcc{Segment: "paper"})
	}
	t.Occs = append(t.Occs, cn.TSSOcc{
		Segment:  "author",
		Keywords: []cn.KeywordAt{{Keyword: a2, SchemaNode: "aname"}},
	})
	last := len(t.Occs) - 1
	t.Edges = append(t.Edges, cn.TSSEdgeRef{From: 1, To: 0, EdgeID: authorEdge})
	for i := 1; i < papers; i++ {
		t.Edges = append(t.Edges, cn.TSSEdgeRef{From: i, To: i + 1, EdgeID: citeEdge})
	}
	t.Edges = append(t.Edges, cn.TSSEdgeRef{From: papers, To: last, EdgeID: authorEdge})
	return t, nil
}

// PairForChain finds two author names connected by a citation chain of
// the given CTSSN size (papers = size-1), so the chain network surely
// has results. It follows a random citation walk from a random paper.
func PairForChain(ds *tss.Dataset, rng *rand.Rand, size int) (a1, a2 string, ok bool) {
	papers := ds.Obj.BySegment("paper")
	if len(papers) == 0 {
		return "", "", false
	}
	need := size - 1
	for attempt := 0; attempt < 200; attempt++ {
		cur := papers[rng.Intn(len(papers))]
		chain := []int64{cur}
		for len(chain) < need {
			var next []int64
			for _, e := range ds.Obj.Out(cur) {
				if ds.Obj.TO(e.To).Segment == "paper" && !containsTO(chain, e.To) {
					next = append(next, e.To)
				}
			}
			if len(next) == 0 {
				break
			}
			cur = next[rng.Intn(len(next))]
			chain = append(chain, cur)
		}
		if len(chain) != need {
			continue
		}
		first := authorOf(ds, chain[0], rng)
		last := authorOf(ds, chain[len(chain)-1], rng)
		if first == "" || last == "" || first == last {
			continue
		}
		return first, last, true
	}
	return "", "", false
}

func containsTO(xs []int64, x int64) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func authorOf(ds *tss.Dataset, paper int64, rng *rand.Rand) string {
	var names []string
	for _, e := range ds.Obj.Out(paper) {
		if ds.Obj.TO(e.To).Segment == "author" {
			names = append(names, authorNameOf(ds, e.To))
		}
	}
	if len(names) == 0 {
		return ""
	}
	return names[rng.Intn(len(names))]
}
