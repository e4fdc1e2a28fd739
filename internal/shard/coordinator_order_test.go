package shard_test

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/shard"
)

// TestGatherOrderDeterministic is the regression test for the execute
// gather walking shards in index order. The per-round outputs used to
// live in a map keyed by shard index; ranging over that map meant the
// "lost shard" log lines, the pending reassignment list (and hence the
// ErrNoQuorum error text), and the stream order feeding the merge all
// followed Go's randomized map iteration order. With two shards failing
// on every query, each gather must report the losses in ascending shard
// order, every time — under the old map iteration this sequence flips
// roughly every other query.
func TestGatherOrderDeterministic(t *testing.T) {
	sys := tpchSystem(t)
	const n = 3
	var mu sync.Mutex
	var lost []string
	cl := startCluster(t, sys, n, clusterConfig{
		opts: shard.CoordinatorOptions{
			BreakerThreshold: 100, // keep failing shards in rotation each query
			Logf: func(format string, args ...any) {
				line := fmt.Sprintf(format, args...)
				if strings.Contains(line, "lost shard") {
					mu.Lock()
					lost = append(lost, line)
					mu.Unlock()
				}
			},
		},
		wrap: func(i int, h http.Handler) http.Handler {
			if i == 0 {
				return h // shard 0 survives and absorbs the reassignments
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/shard/execute" {
					http.Error(w, "injected execute failure", http.StatusInternalServerError)
					return
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	ctx := context.Background()
	const queries = 8
	for q := 0; q < queries; q++ {
		if _, _, err := cl.coord.QueryScoredContext(ctx, []string{"john", "tv"}, 10, ""); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lost) != 2*queries {
		t.Fatalf("expected %d lost-shard log lines (2 per query), got %d:\n%s", 2*queries, len(lost), strings.Join(lost, "\n"))
	}
	for q := 0; q < queries; q++ {
		first, second := lost[2*q], lost[2*q+1]
		if !strings.Contains(first, "lost shard 1") || !strings.Contains(second, "lost shard 2") {
			t.Fatalf("query %d gathered losses out of shard order:\n%s\n%s", q, first, second)
		}
	}
}
