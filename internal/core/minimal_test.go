package core_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/kwindex"
)

// The product described as "set of VCR and DVD" contains both keywords
// of the query "dvd, vcr": any result that attaches an extra part{vcr}
// or service_call{dvd} leaf to that product is non-minimal under §3.1's
// strict MTNN definition. StrictMinimal must drop exactly those.
func TestStrictMinimalDropsRedundantLeaves(t *testing.T) {
	loose := loadFig1(t, core.Options{Z: 8})
	strict := loadFig1(t, core.Options{Z: 8, StrictMinimal: true})

	all, err := loose.QueryAll([]string{"dvd", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	min, err := strict.QueryAll([]string{"dvd", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(min) >= len(all) {
		t.Fatalf("strict %d results, loose %d: nothing dropped", len(min), len(all))
	}
	// Everything kept is minimal; everything dropped is not.
	tos := map[string][]int64{}
	for _, k := range []string{"dvd", "vcr"} {
		for to := range kwindex.TOSetFromList(strict.Index.ContainingList(k), "") {
			tos[k] = append(tos[k], to)
		}
		slices.Sort(tos[k])
	}
	kept := map[string]bool{}
	for _, r := range min {
		kept[r.Key()] = true
		if !exec.IsMinimal(tos, r) {
			t.Fatalf("kept non-minimal result: %s", strict.RenderResult(r))
		}
	}
	for _, r := range all {
		if !kept[r.Key()] && exec.IsMinimal(tos, r) {
			t.Fatalf("dropped minimal result: %s", loose.RenderResult(r))
		}
	}
	// The size-0 result (product holding both keywords) survives.
	if min[0].Score != 0 {
		t.Fatalf("best strict score = %d, want 0", min[0].Score)
	}
}

func TestStrictMinimalKeepsNormalResults(t *testing.T) {
	strict := loadFig1(t, core.Options{Z: 8, StrictMinimal: true})
	rs, err := strict.QueryAll([]string{"john", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 || rs[0].Score != 6 {
		t.Fatalf("strict minimal broke the intro example: %d results", len(rs))
	}
}
