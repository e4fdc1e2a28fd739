package qserve_test

import (
	"context"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/qserve"
)

// A relaxation note must reach the caller on the cache miss AND be
// replayed on the hit — a relaxed answer without its note would look
// like a confident exact answer.
func TestScoredCachesRelaxationNote(t *testing.T) {
	eng := &fakeEngine{relax: &pipeline.Relaxation{Dropped: []string{"zzz"}}}
	qs := qserve.New(eng, qserve.Options{})
	ctx := context.Background()

	for round := 0; round < 2; round++ {
		rs, rx, err := qs.QueryScored(ctx, []string{"john", "zzz"}, 10, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 0 {
			t.Fatalf("round %d: %d results", round, len(rs))
		}
		if rx == nil || len(rx.Dropped) != 1 || rx.Dropped[0] != "zzz" {
			t.Fatalf("round %d: relaxation = %+v, want dropped zzz", round, rx)
		}
	}
	if got := eng.calls.Load(); got != 1 {
		t.Fatalf("engine ran %d times, want 1 (second round must be a cache hit)", got)
	}
	if st := qs.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
}

// Different scorers are different answers: the cache must miss across
// scorer names and hit within one.
func TestScoredCacheKeySeparatesScorers(t *testing.T) {
	eng := &fakeEngine{}
	qs := qserve.New(eng, qserve.Options{})
	ctx := context.Background()

	for _, scorer := range []string{"", "weighted", "diversified"} {
		for round := 0; round < 2; round++ {
			if _, _, err := qs.QueryScored(ctx, []string{"john"}, 10, scorer); err != nil {
				t.Fatalf("scorer %q round %d: %v", scorer, round, err)
			}
		}
	}
	if got := eng.calls.Load(); got != 3 {
		t.Fatalf("engine ran %d times, want 3 (one per scorer, repeats cached)", got)
	}
	// The engine saw each requested scorer verbatim.
	if len(eng.scorers) != 3 || eng.scorers[0] != "" || eng.scorers[1] != "weighted" || eng.scorers[2] != "diversified" {
		t.Fatalf("scorers routed through: %q", eng.scorers)
	}
}
