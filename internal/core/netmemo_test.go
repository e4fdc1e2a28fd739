package core

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
)

// The CN memo used to be a package-global sync.Map keyed by
// *schema.Graph with no eviction: every loaded system's generated
// networks stayed reachable for the life of the process. These are the
// regression tests for the fix — the memo is per-System and bounded.

func TestNetMemoBounded(t *testing.T) {
	mm := newNetMemo(4)
	for i := 0; i < 32; i++ {
		mm.PutTemplate(fmt.Sprintf("sig%d", i), nil)
	}
	if got := mm.len(); got > 4 {
		t.Fatalf("memo grew to %d entries, cap 4", got)
	}
	// LRU: the most recent signatures survive.
	if _, ok := mm.Template("sig31"); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := mm.Template("sig0"); ok {
		t.Fatal("oldest entry survived past the cap")
	}
	// get refreshes recency: touch the LRU victim, insert, and it stays.
	mm.Template("sig28")
	mm.PutTemplate("fresh", nil)
	if _, ok := mm.Template("sig28"); !ok {
		t.Fatal("touched entry was evicted before untouched ones")
	}
}

func TestNetMemoPerSystem(t *testing.T) {
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	load := func() *System {
		s, err := LoadPrepared(&Prepared{Schema: ds.Schema, TSS: ds.TSS, Data: ds.Data, Obj: ds.Obj},
			Options{Z: 8})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := load()
	if _, err := a.Networks([]string{"john", "vcr"}); err != nil {
		t.Fatal(err)
	}
	if a.netMemo.len() == 0 {
		t.Fatal("query did not populate the memo")
	}
	// A second system over the same schema starts with an empty memo:
	// nothing is shared through package state, so dropping a System
	// drops its memo.
	b := load()
	if got := b.memo().len(); got != 0 {
		t.Fatalf("fresh system memo has %d entries", got)
	}
	// Same-shape queries share one generation within a system.
	if _, err := a.Networks([]string{"mike", "vcr"}); err != nil {
		t.Fatal(err)
	}
	if got := a.netMemo.len(); got != 1 {
		t.Fatalf("same-shape queries made %d memo entries, want 1", got)
	}
}
