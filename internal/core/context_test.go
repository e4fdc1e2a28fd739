package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/pipeline"
)

func TestQueryContextCancelled(t *testing.T) {
	s := loadFig1(t, core.Options{Z: 8})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.QueryScoredContext(ctx, []string{"john", "vcr"}, 10, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryScoredContext err = %v, want context.Canceled", err)
	}
	all := &pipeline.Query{Keywords: []string{"us", "vcr"}, Mode: pipeline.ModeAll, Strategy: exec.AutoStrategy}
	if err := s.Run(ctx, all); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run(ModeAll) err = %v, want context.Canceled", err)
	}
	// An unconstrained context behaves exactly like the plain API.
	a, _, err := s.QueryScoredContext(context.Background(), []string{"john", "vcr"}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Query([]string{"john", "vcr"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("ctx query returned %d results, plain %d", len(a), len(b))
	}
}
