package shard

import (
	"testing"

	"repro/internal/kwindex"
)

// TestExecCacheKey: the execute cache key is a function of the request
// alone — equal for equal requests however their maps and covers were
// built, different whenever a field that shapes the answer differs.
func TestExecCacheKey(t *testing.T) {
	base := func() *ExecRequest {
		return &ExecRequest{
			Keywords: []string{"john", "tv"}, K: 10, Strategy: 1, N: 3, Parts: []int{0, 2},
			Lists: EncodeLists(map[string][]kwindex.Posting{
				"john": {{TO: 1, Node: 11, SchemaNode: "name"}, {TO: 4, Node: 12, SchemaNode: "name"}},
				"tv":   {{TO: 2, Node: 21, SchemaNode: "descr"}},
			}),
			GlobalPostings: 100, GlobalKeywords: 20,
		}
	}
	same := base()
	same.Parts = []int{2, 0} // a cover is a set
	if execCacheKey(base()) != execCacheKey(same) {
		t.Fatal("equal requests, different keys")
	}
	variants := map[string]func(r *ExecRequest){
		"k":        func(r *ExecRequest) { r.K = 5 },
		"strategy": func(r *ExecRequest) { r.Strategy = 2 },
		"n":        func(r *ExecRequest) { r.N = 4 },
		"parts":    func(r *ExecRequest) { r.Parts = []int{0, 1} },
		"keywords": func(r *ExecRequest) { r.Keywords = []string{"tv", "john"} },
		"totals":   func(r *ExecRequest) { r.GlobalPostings = 101 },
		"posting": func(r *ExecRequest) {
			wl := r.Lists["john"]
			wl.Posts[1][0] = 5
		},
		"schema": func(r *ExecRequest) {
			wl := r.Lists["tv"]
			wl.Schemas[0] = "name"
		},
		"list moved": func(r *ExecRequest) {
			r.Lists["tv"], r.Lists["john"] = r.Lists["john"], r.Lists["tv"]
		},
		"posting moved across lists": func(r *ExecRequest) {
			j, tv := r.Lists["john"], r.Lists["tv"]
			tv.Posts = append([][3]int64{j.Posts[1]}, tv.Posts...)
			j.Posts = j.Posts[:1]
			r.Lists["john"], r.Lists["tv"] = j, tv
		},
	}
	for name, mutate := range variants {
		r := base()
		mutate(r)
		if execCacheKey(r) == execCacheKey(base()) {
			t.Errorf("requests differing in %s share a key", name)
		}
	}
}
