package qserve

import (
	"testing"

	"repro/internal/exec"
)

// The result cache's own behaviour (LRU order, budgets, TTL, refresh)
// is pinned by internal/lru's suite; what stays here is the key.

func TestCacheKeyNormalization(t *testing.T) {
	a, err := cacheKey("topk", []string{"Codd", "Relational"}, 10, exec.NestedLoop, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := cacheKey("topk", []string{"relational!", "CODD"}, 10, exec.NestedLoop, "")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("permuted/case keys differ:\n%q\n%q", a, b)
	}
	c, _ := cacheKey("topk", []string{"codd", "relational"}, 20, exec.NestedLoop, "")
	if a == c {
		t.Fatal("different k collides")
	}
	d, _ := cacheKey("all", []string{"codd", "relational"}, 10, exec.NestedLoop, "")
	if a == d {
		t.Fatal("different kind collides")
	}
	e, _ := cacheKey("topk", []string{"codd", "codd"}, 10, exec.NestedLoop, "")
	f, _ := cacheKey("topk", []string{"codd"}, 10, exec.NestedLoop, "")
	if e == f {
		t.Fatal("keyword bag collapsed duplicates")
	}
	// Multi-token phrases normalize too.
	g, _ := cacheKey("topk", []string{"E. F. Codd"}, 10, exec.NestedLoop, "")
	h, _ := cacheKey("topk", []string{"e f codd"}, 10, exec.NestedLoop, "")
	if g != h {
		t.Fatalf("phrase keys differ:\n%q\n%q", g, h)
	}
}
