package core_test

import (
	"context"
	"maps"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/kwindex"
	"repro/internal/pipeline"
)

// countingSource counts the reads a query makes of the master index:
// containing lists per keyword, and every SchemaNodes or TOSet call.
type countingSource struct {
	kwindex.Source
	mu      sync.Mutex
	lists   map[string]int
	derived int
}

func (c *countingSource) ContainingList(k string) []kwindex.Posting {
	c.mu.Lock()
	c.lists[k]++
	c.mu.Unlock()
	return c.Source.ContainingList(k)
}

func (c *countingSource) SchemaNodes(k string) []string {
	c.mu.Lock()
	c.derived++
	c.mu.Unlock()
	return c.Source.SchemaNodes(k)
}

func (c *countingSource) TOSet(k, schemaNode string) map[int64]bool {
	c.mu.Lock()
	c.derived++
	c.mu.Unlock()
	return c.Source.TOSet(k, schemaNode)
}

// A query reads each distinct keyword's containing list exactly once —
// discover splits it into the schema nodes and TO sets every later stage
// needs — and never asks the index for SchemaNodes or TOSet, whether a
// keyword repeats or relaxation looks a phrase's tokens up one by one.
func TestOnePostingReadPerKeyword(t *testing.T) {
	ds, err := datagen.DBLP(datagen.DefaultDBLPParams())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.LoadPrepared(ds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{Source: sys.Index}
	sys.Index = src
	cases := []struct {
		keywords []string
		relax    bool
		reads    map[string]int
	}{
		{[]string{"xml", "chen10"}, false, map[string]int{"xml": 1, "chen10": 1}},
		{[]string{"chen10", "chen10"}, false, map[string]int{"chen10": 1}},
		// The phrase matches no node, so relaxation substitutes "chen10".
		{[]string{"xml", "chen10 zzqx"}, true, map[string]int{"xml": 1, "chen10 zzqx": 1, "chen10": 1}},
	}
	for _, c := range cases {
		src.lists, src.derived = map[string]int{}, 0
		sys.Opts.Relax = c.relax
		q := &pipeline.Query{Keywords: c.keywords, Mode: pipeline.ModeTopK, K: 10, Strategy: exec.NestedLoop}
		if err := sys.Run(context.Background(), q); err != nil {
			t.Fatalf("%q: %v", c.keywords, err)
		}
		if len(q.Results) == 0 {
			t.Fatalf("%q: no results", c.keywords)
		}
		if c.relax != (q.Relaxation != nil) {
			t.Fatalf("%q: relaxation = %+v", c.keywords, q.Relaxation)
		}
		if !maps.Equal(src.lists, c.reads) {
			t.Fatalf("%q: containing-list reads = %v, want %v", c.keywords, src.lists, c.reads)
		}
		if src.derived != 0 {
			t.Fatalf("%q: %d SchemaNodes/TOSet calls, want 0", c.keywords, src.derived)
		}
	}
}
