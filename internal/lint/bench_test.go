package lint

import (
	"testing"
	"time"
)

// BenchmarkXkvet measures the full `make lint` unit of work: load,
// parse, and type-check every module package, build the flow facts,
// and run the analyzers. The typecheck variant runs the same load with
// an empty analyzer list, so the difference between the two is what
// the five analyzers themselves cost on top of the type-check they
// share.
func BenchmarkXkvet(b *testing.B) {
	root, err := ModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("typecheck", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := CheckModule(root, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := CheckModule(root, Analyzers()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestXkvetWallClock is the `make lint` latency brake: one full-module
// run must finish far inside a minute (it takes a few seconds today).
// The fact layer walks every function and the analyzers walk parent
// chains, so an accidentally superlinear (or, as once shipped, cyclic)
// traversal shows up here as a budget blowout rather than as a CI job
// that silently got slower.
func TestXkvetWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; skipped in -short mode")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := CheckModule(root, Analyzers()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 60*time.Second {
		t.Errorf("full-module xkvet took %v, over the 60s budget — a flow or analyzer pass has gone superlinear", d)
	}
}
