package exec_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
)

func TestStreamPagesCoverAllResults(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	all, err := s.QueryAll([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	plans, err := s.Plans([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS, Index: s.Index}
	st := exec.StreamPlans(ex, plans, exec.NestedLoop)
	defer st.Close()

	got := map[string]bool{}
	pages := 0
	for {
		page := st.Next(2)
		if len(page) == 0 {
			break
		}
		pages++
		if len(page) > 2 {
			t.Fatalf("page of %d", len(page))
		}
		for _, r := range page {
			if got[r.Key()] {
				t.Fatalf("duplicate result %s", r.Key())
			}
			got[r.Key()] = true
		}
	}
	if len(got) != len(all) {
		t.Fatalf("stream yielded %d results, QueryAll %d", len(got), len(all))
	}
	if pages < 2 {
		t.Fatalf("only %d pages; paging not exercised", pages)
	}
	// Exhausted stream returns empty pages forever.
	if page := st.Next(5); len(page) != 0 {
		t.Fatalf("post-exhaustion page of %d", len(page))
	}
}

func TestStreamCloseEarly(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	plans, err := s.Plans([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS, Index: s.Index}
	st := exec.StreamPlans(ex, plans, exec.NestedLoop)
	first := st.Next(1)
	st.Close()
	st.Close() // idempotent
	if len(first) > 1 {
		t.Fatalf("page of %d", len(first))
	}
}

func TestStreamFirstPageHasBestScore(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	all, err := s.QueryAll([]string{"john", "vcr"})
	if err != nil || len(all) == 0 {
		t.Fatalf("queryall: %v, %d", err, len(all))
	}
	plans, err := s.Plans([]string{"john", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS, Index: s.Index}
	st := exec.StreamPlans(ex, plans, exec.NestedLoop)
	defer st.Close()
	// Pull everything; the global best must appear somewhere.
	best := -1
	for {
		page := st.Next(10)
		if len(page) == 0 {
			break
		}
		for _, r := range page {
			if best < 0 || r.Score < best {
				best = r.Score
			}
		}
	}
	if best != all[0].Score {
		t.Fatalf("stream best %d, QueryAll best %d", best, all[0].Score)
	}
}
