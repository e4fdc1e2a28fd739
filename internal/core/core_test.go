package core_test

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
)

func loadFig1(t *testing.T, opts core.Options) *core.System {
	t.Helper()
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.LoadPrepared(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The §1 example end-to-end: "John, VCR" must return the size-6 result
// (John supplied the lineitem whose product mentions VCR) first, and
// size-8 results (VCR sub-parts of the TV John supplied) after it.
func TestIntroJohnVCR(t *testing.T) {
	s := loadFig1(t, core.Options{Z: 8})
	results, err := s.QueryAll([]string{"John", "VCR"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	if results[0].Score != 6 {
		t.Fatalf("best score = %d, want 6; result:\n%s", results[0].Score, s.RenderResult(results[0]))
	}
	top := strings.Join(s.ResultSummaries(results[0]), " | ")
	if !strings.Contains(top, "John") || !strings.Contains(top, "set of VCR and DVD") {
		t.Fatalf("top result wrong: %s", top)
	}
	var have8 int
	for _, r := range results {
		if r.Score == 8 {
			sum := strings.Join(s.ResultSummaries(r), " | ")
			if strings.Contains(sum, "John") && strings.Contains(sum, "VCR") {
				have8++
			}
		}
	}
	// Two VCR sub-parts × two lineitems referencing the TV... each size-8
	// MTTON is person—lineitem—part(TV)—part(VCR); at least two exist.
	if have8 < 2 {
		t.Fatalf("size-8 sub-part results = %d, want >= 2", have8)
	}
	// Scores must be non-decreasing.
	for i := 1; i < len(results); i++ {
		if results[i-1].Score > results[i].Score {
			t.Fatal("results not sorted by score")
		}
	}
}

// Figure 2's multivalued-dependency example: "US, VCR" over the fragment
// where two lineitems reference the TV part with two VCR sub-parts must
// produce the four results N1..N4 for that network shape.
func TestMVDRedundancy(t *testing.T) {
	s := loadFig1(t, core.Options{Z: 8})
	results, err := s.QueryAll([]string{"US", "VCR"})
	if err != nil {
		t.Fatal(err)
	}
	// Count results of the person{us}—lineitem—part—part{vcr} shape:
	// person + lineitem + 2 parts bound.
	byShape := make(map[string][]exec.Result)
	for _, r := range results {
		byShape[r.Net.Canon()] = append(byShape[r.Net.Canon()], r)
	}
	foundN := 0
	for _, group := range byShape {
		r := group[0]
		segs := make(map[string]int)
		for _, o := range r.Net.Occs {
			segs[o.Segment]++
		}
		if segs["person"] == 1 && segs["lineitem"] == 1 && segs["part"] == 2 && len(r.Net.Occs) == 4 {
			foundN += len(group)
		}
	}
	if foundN != 4 {
		t.Fatalf("MVD example: %d results of the N1..N4 shape, want 4", foundN)
	}
}

// The optimized (caching) and naive executors must produce identical
// results, in the same order, for several queries and every
// decomposition; the naive one is what the served query path runs.
func TestCacheEquivalence(t *testing.T) {
	queries := [][]string{{"john", "vcr"}, {"us", "vcr"}, {"tv", "vcr"}, {"mike", "dvd"}}
	for _, preset := range allPresets {
		s := loadFig1(t, core.Options{Z: 8, Decomposition: preset})
		for _, q := range queries {
			plans, err := s.Plans(q)
			if err != nil {
				t.Fatal(err)
			}
			run := func(cache *exec.LookupCache) []string {
				ex := &exec.Executor{Store: s.Store, TSS: s.TSS, Cache: cache}
				var keys []string
				for _, p := range plans {
					if err := ex.Evaluate(p, func(r exec.Result) bool {
						keys = append(keys, r.Key())
						return true
					}); err != nil {
						t.Fatal(err)
					}
				}
				return keys
			}
			cached, naive := run(exec.NewLookupCache(0)), run(nil)
			if !slices.Equal(cached, naive) {
				t.Fatalf("%s/%v: cached %d results, naive %d", preset, q, len(cached), len(naive))
			}
			served, _ := runAll(t, s, q, exec.NestedLoop, "")
			sort.Strings(naive)
			if !slices.Equal(resultKeys(served), naive) {
				t.Fatalf("%s/%v: served %d results, naive executor %d", preset, q, len(served), len(naive))
			}
		}
	}
}

var allPresets = []core.DecompositionPreset{
	core.PresetXKeyword, core.PresetComplete, core.PresetMinClust,
	core.PresetMinNClustIndx, core.PresetMinNClustNIndx,
}

// Every decomposition preset must return the same result sets.
func TestDecompositionEquivalence(t *testing.T) {
	var baseline []exec.Result
	for i, p := range allPresets {
		s := loadFig1(t, core.Options{Z: 8, Decomposition: p})
		rs, err := s.QueryAll([]string{"john", "vcr"})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if i == 0 {
			baseline = rs
			continue
		}
		if !sameResults(baseline, rs) {
			t.Fatalf("%s: %d results, baseline %d", p, len(rs), len(baseline))
		}
	}
}

// Nested-loop and hash-join strategies must agree.
func TestStrategyEquivalence(t *testing.T) {
	s := loadFig1(t, core.Options{Z: 8})
	nl, _ := runAll(t, s, []string{"us", "vcr"}, exec.NestedLoop, "")
	hj, _ := runAll(t, s, []string{"us", "vcr"}, exec.HashJoin, "")
	if !sameResults(nl, hj) {
		t.Fatalf("nested-loop %d results, hash-join %d", len(nl), len(hj))
	}
}

func sameResults(a, b []exec.Result) bool {
	ka := resultKeys(a)
	kb := resultKeys(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func resultKeys(rs []exec.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Key()
	}
	sort.Strings(out)
	return out
}

func TestTopKStopsEarly(t *testing.T) {
	s := loadFig1(t, core.Options{Z: 8})
	all, err := s.QueryAll([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 3 {
		t.Fatalf("need >= 3 results for this test, got %d", len(all))
	}
	top, err := s.Query([]string{"us", "vcr"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("top-2 returned %d results", len(top))
	}
	// The top-k results' scores may not beat the global best.
	if top[0].Score < all[0].Score {
		t.Fatal("top-k produced a better-than-best score")
	}
}

func TestQueryValidation(t *testing.T) {
	s := loadFig1(t, core.Options{})
	if _, err := s.Query(nil, 5); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := s.Query([]string{"  "}, 5); err == nil {
		t.Fatal("blank keyword accepted")
	}
	rs, err := s.Query([]string{"doesnotexist", "john"}, 5)
	if err != nil || len(rs) != 0 {
		t.Fatalf("absent keyword: %v results, err %v", len(rs), err)
	}
}

func TestSizeBoundDBLP(t *testing.T) {
	// Figure 14's graph: all values sit one containment step below their
	// heads, so f(8) = 8 - 2 = 6 with two keywords, as §7 states.
	ds, err := datagen.DBLP(datagen.DefaultDBLPParams())
	if err != nil {
		t.Fatal(err)
	}
	if m := core.SizeBound(ds.TSS, ds.Data, 8, 2); m != 6 {
		t.Fatalf("SizeBound = %d, want 6", m)
	}
	if m := core.SizeBound(ds.TSS, ds.Data, 6, 2); m != 4 {
		t.Fatalf("SizeBound(6) = %d, want 4", m)
	}
}

func TestRenderResult(t *testing.T) {
	s := loadFig1(t, core.Options{Z: 8})
	rs, err := s.QueryAll([]string{"john", "vcr"})
	if err != nil || len(rs) == 0 {
		t.Fatalf("query: %v, %d results", err, len(rs))
	}
	out := s.RenderResult(rs[0])
	for _, frag := range []string{"John", "VCR", "«john»", "«vcr»"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q:\n%s", frag, out)
		}
	}
	// Edge annotations must appear ("supplied by" or its reverse).
	if !strings.Contains(out, "(") {
		t.Fatalf("render missing edge annotations:\n%s", out)
	}
}

func TestDBLPEndToEnd(t *testing.T) {
	ds, err := datagen.DBLP(datagen.DefaultDBLPParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.LoadPrepared(ds,
		core.Options{Z: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Two authors that co-author some paper (so a size-6 MTNN exists:
	// name-author-authorref-paper-authorref-author-name).
	var a1, a2 string
	for _, pa := range s.Obj.BySegment("paper") {
		var names []string
		for _, e := range s.Obj.Out(pa) {
			if s.Obj.TO(e.To).Segment == "author" {
				sum := s.Obj.Summary(e.To) // author[name=...]
				names = append(names, strings.TrimSuffix(strings.SplitN(sum, "name=", 2)[1], "]"))
			}
		}
		if len(names) >= 2 {
			a1, a2 = names[0], names[1]
			break
		}
	}
	if a1 == "" {
		t.Fatal("no co-authored paper in fixture")
	}
	rs, err := s.Query([]string{a1, a2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatalf("no results for %q, %q", a1, a2)
	}
	for _, r := range rs {
		if r.Score > 6 {
			t.Fatalf("score %d exceeds Z", r.Score)
		}
	}
}
