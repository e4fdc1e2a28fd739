package core_test

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

var (
	// Duration tokens ("12µs", "1.234ms", "0s") are the only
	// run-to-run-variable part of the explain output.
	durRe   = regexp.MustCompile(`\d+(\.\d+)?(ns|µs|ms|s)`)
	spaceRe = regexp.MustCompile(` +`)
)

// normalizeExplain blanks durations and collapses the padding that
// tracks their width, leaving structure, cardinalities and cache
// counters to compare exactly.
func normalizeExplain(s string) string {
	return spaceRe.ReplaceAllString(durRe.ReplaceAllString(s, "<dur>"), " ")
}

// TestExplainAnalyzeGolden locks the -explain-analyze textual output
// for the paper's Figure 1 query. The execute stage is sequential, so
// lookup-cache hit/miss counts are deterministic; a fresh System makes
// the first run a memo miss. Regenerate with
// go test ./internal/core/ -run ExplainAnalyzeGolden -update
func TestExplainAnalyzeGolden(t *testing.T) {
	s := loadFig1(t, core.Options{Z: 8})
	expl, err := s.ExplainAnalyze(context.Background(), []string{"john", "vcr"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := normalizeExplain(expl.Format())

	golden := filepath.Join("testdata", "explain_fig1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("explain output drifted from golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// A second identical query must hit the CN memo.
	expl2, err := s.ExplainAnalyze(context.Background(), []string{"john", "vcr"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range expl2.Stages {
		if sp.Stage == "generate" && !sp.Cached {
			t.Error("second run did not hit the CN memo")
		}
	}
	// Same answer either way.
	if expl2.Results != expl.Results || expl2.Networks != expl.Networks {
		t.Errorf("memo-hit run differs: %d/%d results, %d/%d networks",
			expl2.Results, expl.Results, expl2.Networks, expl.Networks)
	}
}

// TestExplainAnalyzeAll covers the k<=0 path (QueryAll semantics).
func TestExplainAnalyzeAll(t *testing.T) {
	s := loadFig1(t, core.Options{Z: 8})
	expl, err := s.ExplainAnalyze(context.Background(), []string{"john", "vcr"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if expl.Mode != "all" {
		t.Fatalf("mode = %q, want all", expl.Mode)
	}
	all, err := s.QueryAll([]string{"john", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	if expl.Results != len(all) {
		t.Fatalf("explain reports %d results, QueryAll returns %d", expl.Results, len(all))
	}
}

// TestConcurrentQueryAndStream hammers one System with interleaved
// Query and QueryStream calls — the serving pattern — exercising the
// shared netMemo, metrics sink and per-query lookup caches through the
// pipeline. Run under -race in CI.
func TestConcurrentQueryAndStream(t *testing.T) {
	s := loadFig1(t, core.Options{Z: 8})
	want, err := s.Query([]string{"john", "vcr"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if (w+i)%2 == 0 {
					rs, err := s.Query([]string{"john", "vcr"}, 5)
					if err != nil {
						errs <- err
						return
					}
					if len(rs) != len(want) {
						errs <- nil
						return
					}
				} else {
					st, err := s.QueryStream([]string{"us", "vcr"})
					if err != nil {
						errs <- err
						return
					}
					n := 0
					for {
						page := st.Next(4)
						n += len(page)
						if len(page) < 4 {
							break
						}
					}
					st.Close()
					if n == 0 {
						errs <- nil
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent query/stream failed: %v", err)
	}
	snap := s.PipelineSnapshot()
	if snap.Queries < 32 {
		t.Fatalf("metrics counted %d queries, want >= 32", snap.Queries)
	}
	if snap.ByMode["topk"] == 0 || snap.ByMode["stream"] == 0 {
		t.Fatalf("by-mode counters missing a mode: %v", snap.ByMode)
	}
}
