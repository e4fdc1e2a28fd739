package qserve

import (
	"slices"
	"testing"
)

// The result cache's own behaviour (LRU order, budgets, TTL, refresh)
// is pinned by internal/lru's suite; what stays here is the key.

func TestCacheKeyNormalization(t *testing.T) {
	a, norm, err := cacheKey([]string{"Codd", "Relational"}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	b, normB, err := cacheKey([]string{"relational!", "CODD"}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("permuted/case keys differ:\n%q\n%q", a, b)
	}
	// The engine is asked the key's bag, whatever the request order.
	if want := []string{"codd", "relational"}; !slices.Equal(norm, want) || !slices.Equal(normB, want) {
		t.Fatalf("normalized keywords %q / %q, want %q", norm, normB, want)
	}
	c, _, _ := cacheKey([]string{"codd", "relational"}, 20, "")
	if a == c {
		t.Fatal("different k collides")
	}
	d, _, _ := cacheKey([]string{"codd", "relational"}, 10, "weighted")
	if a == d {
		t.Fatal("different scorer collides")
	}
	e, _, _ := cacheKey([]string{"codd", "codd"}, 10, "")
	f, _, _ := cacheKey([]string{"codd"}, 10, "")
	if e == f {
		t.Fatal("keyword bag collapsed duplicates")
	}
	// Multi-token phrases normalize too.
	g, _, _ := cacheKey([]string{"E. F. Codd"}, 10, "")
	h, _, _ := cacheKey([]string{"e f codd"}, 10, "")
	if g != h {
		t.Fatalf("phrase keys differ:\n%q\n%q", g, h)
	}
}
