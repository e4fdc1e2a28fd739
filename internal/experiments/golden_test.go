package experiments_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var updateFigs = flag.Bool("update", false, "rewrite testdata/figs_quick.golden")

// TestFiguresGolden pins the machine-independent columns — weighted I/O
// cost, lookups and results, never wall time — of Figures 15(a), 15(b),
// 16(a) and 16(b) under QuickConfig. A change to the executor, the
// optimizer, the physical design or the simulated buffer pool that moves
// any of the paper's cost curves fails here.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	w := quickWorkload(t)
	var sb strings.Builder
	for _, fn := range []func(*experiments.Workload) (experiments.Figure, error){
		experiments.Fig15a, experiments.Fig15b, experiments.Fig16a, experiments.Fig16b,
	} {
		fig, err := fn(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range fig.Series {
			for _, p := range s.Points {
				fmt.Fprintf(&sb, "%-3s %-26s %s=%-3d cost=%g lkups=%g res=%g\n",
					fig.ID, s.Label, fig.XLabel, p.X, p.Cost, p.Lookups, p.Results)
			}
		}
	}

	const path = "testdata/figs_quick.golden"
	if *updateFigs {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("figure columns changed:\n--- got\n%s--- want\n%s", got, want)
	}
}
