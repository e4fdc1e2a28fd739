package optimizer_test

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestExplain(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	plans, err := s.Plans([]string{"john", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	sawProbe := false
	for _, pp := range plans {
		out := pp.Explain(s.TSS, s.Store)
		if !strings.Contains(out, "seed") {
			t.Fatalf("explain missing seed:\n%s", out)
		}
		if strings.Contains(out, "probe") {
			sawProbe = true
			if !strings.Contains(out, "clustered") && !strings.Contains(out, "hash") && !strings.Contains(out, "scan") {
				t.Fatalf("explain missing access path:\n%s", out)
			}
		}
	}
	if !sawProbe {
		t.Fatal("no plan had probe steps")
	}
	// Explain must also work without a store (no access paths).
	if out := plans[len(plans)-1].Explain(s.TSS, nil); out == "" {
		t.Fatal("empty explain")
	}
}
