package banks_test

import (
	"testing"

	"repro/internal/banks"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/xmlgraph"
)

func fig1Searcher(t *testing.T) (*banks.Searcher, *datagen.Dataset) {
	t.Helper()
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	return banks.NewSearcher(ds.Data), ds
}

func TestSearchIntroExample(t *testing.T) {
	s, ds := fig1Searcher(t)
	trees, err := s.Search([]string{"john", "vcr"}, banks.Options{MaxScore: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) == 0 {
		t.Fatal("no trees")
	}
	// The best connection has 6 edges, like XKeyword's best MTNN.
	if trees[0].Score != 6 {
		t.Fatalf("best score = %d, want 6", trees[0].Score)
	}
	for i := 1; i < len(trees); i++ {
		if trees[i-1].Score > trees[i].Score {
			t.Fatal("trees not sorted")
		}
	}
	// Every tree is a valid connected acyclic subgraph containing both
	// keywords.
	for _, tr := range trees {
		sub := xmlgraph.Subgraph{Nodes: tr.Nodes, Edges: tr.Edges}
		if !sub.IsUncycled() || !sub.IsConnected() {
			t.Fatalf("invalid tree %v", tr.Nodes)
		}
		var hasJohn, hasVCR bool
		for _, id := range tr.Nodes {
			n := ds.Data.Node(id)
			switch n.Value {
			case "John":
				hasJohn = true
			}
			if n.Value == "VCR" || n.Value == "set of VCR and DVD" {
				hasVCR = true
			}
		}
		if !hasJohn || !hasVCR {
			t.Fatalf("tree misses a keyword: john=%v vcr=%v", hasJohn, hasVCR)
		}
	}
}

// The baseline and XKeyword agree on the best proximity score — both
// find the shortest connection, even though the baseline works on the
// raw data graph and XKeyword on schema-derived connection relations.
func TestAgreesWithXKeywordOnBestScore(t *testing.T) {
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.LoadPrepared(ds,
		core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := banks.NewSearcher(ds.Data)
	for _, q := range [][]string{{"john", "vcr"}, {"us", "vcr"}, {"tv", "vcr"}, {"mike", "dvd"}} {
		xk, err := sys.QueryAll(q)
		if err != nil {
			t.Fatal(err)
		}
		bk, err := s.Search(q, banks.Options{MaxScore: 8})
		if err != nil {
			t.Fatal(err)
		}
		if (len(xk) == 0) != (len(bk) == 0) {
			t.Fatalf("%v: xkeyword %d results, banks %d", q, len(xk), len(bk))
		}
		if len(xk) == 0 {
			continue
		}
		if xk[0].Score != bk[0].Score {
			t.Fatalf("%v: best scores differ: xkeyword %d, banks %d", q, xk[0].Score, bk[0].Score)
		}
	}
}

func TestSearchThreeKeywords(t *testing.T) {
	s, _ := fig1Searcher(t)
	trees, err := s.Search([]string{"john", "us", "vcr"}, banks.Options{MaxScore: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) == 0 {
		t.Fatal("no trees for three keywords")
	}
	if trees[0].Score > 7 {
		t.Fatalf("best three-keyword score = %d", trees[0].Score)
	}
}

func TestSearchValidation(t *testing.T) {
	s, _ := fig1Searcher(t)
	if _, err := s.Search(nil, banks.Options{}); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := s.Search([]string{"  "}, banks.Options{}); err == nil {
		t.Fatal("blank keyword accepted")
	}
	trees, err := s.Search([]string{"john", "doesnotexist"}, banks.Options{})
	if err != nil || trees != nil {
		t.Fatalf("absent keyword: %v, %v", trees, err)
	}
}

func TestSearchTopK(t *testing.T) {
	s, _ := fig1Searcher(t)
	all, err := s.Search([]string{"us", "vcr"}, banks.Options{MaxScore: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 2 {
		t.Skip("not enough trees")
	}
	top, err := s.Search([]string{"us", "vcr"}, banks.Options{MaxScore: 8, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 {
		t.Fatalf("K=1 returned %d", len(top))
	}
}

func TestMaxScoreBound(t *testing.T) {
	s, _ := fig1Searcher(t)
	trees, err := s.Search([]string{"john", "vcr"}, banks.Options{MaxScore: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees {
		if tr.Score > 5 {
			t.Fatalf("tree of score %d exceeds bound", tr.Score)
		}
	}
}
