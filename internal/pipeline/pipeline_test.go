package pipeline_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/pipeline"
)

// TestShapeSignatureLengthPrefixed is the regression test for the CN
// memo key: the old encoding joined schema-node lists with bare ","/";"
// separators, so node names containing those characters collided two
// different keyword shapes. The length-prefixed encoding keeps every
// distinct shape distinct.
func TestShapeSignatureLengthPrefixed(t *testing.T) {
	collisions := [][2][][]string{
		// One node named "a,b" vs two nodes "a" and "b": the old
		// encoding produced ";a,b" for both.
		{{{"a,b"}}, {{"a", "b"}}},
		// A ";" inside a name vs a keyword-list boundary: ";a;b" both.
		{{{"a;b"}}, {{"a"}, {"b"}}},
		// Separator shuffled across keyword boundaries: ";a,b;c" vs
		// ";a;b,c" are distinct, but ";a,b,c" with nodes {"a","b,c"}
		// vs {"a,b","c"} collided.
		{{{"a", "b,c"}}, {{"a,b", "c"}}},
	}
	for i, pair := range collisions {
		a := pipeline.ShapeSignature(6, pair[0])
		b := pipeline.ShapeSignature(6, pair[1])
		if a == b {
			t.Errorf("case %d: shapes %v and %v share signature %q", i, pair[0], pair[1], a)
		}
	}
	// Z participates in the key.
	if pipeline.ShapeSignature(6, [][]string{{"a"}}) == pipeline.ShapeSignature(8, [][]string{{"a"}}) {
		t.Error("Z not part of the signature")
	}
	// Identical shapes agree, of course.
	if pipeline.ShapeSignature(6, [][]string{{"x", "y"}}) != pipeline.ShapeSignature(6, [][]string{{"x", "y"}}) {
		t.Error("identical shapes produced different signatures")
	}
}

// testSystem loads the paper's Figure 1 TPCH fragment.
func testSystem(t *testing.T) *core.System {
	t.Helper()
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.LoadPrepared(&core.Prepared{Schema: ds.Schema, TSS: ds.TSS, Data: ds.Data, Obj: ds.Obj},
		core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newPipeline assembles a pipeline over a loaded system's exported
// parts, the way core does internally, with an overridable shape memo.
func newPipeline(sys *core.System, nc pipeline.TemplateCache) *pipeline.Pipeline {
	return pipeline.New(pipeline.Config{
		Schema:    sys.Schema,
		TSS:       sys.TSS,
		Index:     sys.Index,
		Z:         sys.Opts.Z,
		Workers:   sys.Opts.Workers,
		Templates: nc,
		NewOptimizer: func() *optimizer.Optimizer {
			return &optimizer.Optimizer{
				TSS: sys.TSS, Store: sys.Store, Index: sys.Index, Stats: sys.Stats,
				Fragments: sys.Decomp.Fragments, MaxJoins: sys.Opts.B,
			}
		},
		NewExecutor: func() *exec.Executor {
			return &exec.Executor{Store: sys.Store, TSS: sys.TSS, Index: sys.Index,
				Cache: exec.NewLookupCache(0)}
		},
	})
}

// TestStagesReportIntoTrace drives a real top-k query with tracing on
// and checks every stage reported duration and cardinality.
func TestStagesReportIntoTrace(t *testing.T) {
	sys := testSystem(t)
	tr := obs.NewTrace()
	q := &pipeline.Query{
		Keywords: []string{"john", "vcr"},
		Mode:     pipeline.ModeTopK,
		K:        10,
		Strategy: exec.NestedLoop,
		Trace:    tr,
	}
	p := newPipeline(sys, nil)
	if err := p.Run(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if len(q.Results) == 0 {
		t.Fatal("query produced no results")
	}
	spans := tr.Spans()
	if len(spans) != len(pipeline.StageNames) {
		t.Fatalf("got %d spans, want %d", len(spans), len(pipeline.StageNames))
	}
	for i, sp := range spans {
		if sp.Stage != pipeline.StageNames[i] {
			t.Fatalf("span %d is %q, want %q", i, sp.Stage, pipeline.StageNames[i])
		}
		if sp.Duration < 0 {
			t.Fatalf("stage %s has negative duration", sp.Stage)
		}
	}
	// Cardinalities chain: discover in = keywords, execute in = plans,
	// rank out = result count.
	if spans[0].In != 2 {
		t.Fatalf("discover in = %d, want 2", spans[0].In)
	}
	if spans[4].In != int64(len(q.Plans)) {
		t.Fatalf("execute in = %d, want %d plans", spans[4].In, len(q.Plans))
	}
	if spans[5].Out != int64(len(q.Results)) {
		t.Fatalf("rank out = %d, want %d results", spans[5].Out, len(q.Results))
	}
	// Without a net cache the generate stage reports a miss.
	if spans[1].Cached || spans[1].CacheMisses != 1 {
		t.Fatalf("generate span cache fields wrong: %+v", spans[1])
	}
	// The executor's lookup cache traffic surfaced on the execute span.
	if spans[4].CacheHits+spans[4].CacheMisses == 0 {
		t.Fatal("execute span has no lookup-cache traffic")
	}
}

// TestPartialModesStopEarly checks ModeNetworks and ModePlans run only
// their stage prefix.
func TestPartialModesStopEarly(t *testing.T) {
	sys := testSystem(t)
	p := newPipeline(sys, nil)

	tr := obs.NewTrace()
	q := &pipeline.Query{Keywords: []string{"john", "vcr"}, Mode: pipeline.ModeNetworks, Trace: tr}
	if err := p.Run(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if len(q.Nets) == 0 || q.Plans != nil || q.Results != nil {
		t.Fatalf("networks mode side effects wrong: %d nets, %d plans, %d results",
			len(q.Nets), len(q.Plans), len(q.Results))
	}
	if got := len(tr.Spans()); got != 3 {
		t.Fatalf("networks mode ran %d stages, want 3", got)
	}

	tr = obs.NewTrace()
	q = &pipeline.Query{Keywords: []string{"john", "vcr"}, Mode: pipeline.ModePlans, Trace: tr}
	if err := p.Run(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if len(q.Plans) == 0 || q.Results != nil {
		t.Fatal("plans mode did not stop after optimize")
	}
	if got := len(tr.Spans()); got != 4 {
		t.Fatalf("plans mode ran %d stages, want 4", got)
	}
}

// TestMetricsAccumulate checks the cumulative sink distinguishes runs
// per mode and counts stage traffic.
func TestMetricsAccumulate(t *testing.T) {
	sys := testSystem(t)
	m := pipeline.NewMetrics()
	cfgp := pipeline.New(pipeline.Config{
		Schema: sys.Schema, TSS: sys.TSS, Index: sys.Index, Z: sys.Opts.Z,
		Workers: sys.Opts.Workers,
		NewOptimizer: func() *optimizer.Optimizer {
			return &optimizer.Optimizer{TSS: sys.TSS, Store: sys.Store, Index: sys.Index,
				Stats: sys.Stats, Fragments: sys.Decomp.Fragments, MaxJoins: sys.Opts.B}
		},
		NewExecutor: func() *exec.Executor {
			return &exec.Executor{Store: sys.Store, TSS: sys.TSS, Index: sys.Index}
		},
		Metrics: m,
	})
	for i := 0; i < 3; i++ {
		q := &pipeline.Query{Keywords: []string{"john", "vcr"}, Mode: pipeline.ModeTopK, K: 5,
			Strategy: exec.NestedLoop}
		if err := cfgp.Run(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	if snap.Queries != 3 {
		t.Fatalf("queries = %d, want 3", snap.Queries)
	}
	if snap.ByMode["topk"] != 3 {
		t.Fatalf("by_mode[topk] = %d, want 3", snap.ByMode["topk"])
	}
	if len(snap.Stages) != len(pipeline.StageNames) {
		t.Fatalf("got %d stage snapshots", len(snap.Stages))
	}
	for _, ss := range snap.Stages {
		if ss.Runs != 3 {
			t.Fatalf("stage %s ran %d times, want 3", ss.Stage, ss.Runs)
		}
		if ss.Errors != 0 {
			t.Fatalf("stage %s reported errors", ss.Stage)
		}
	}
	// A nil sink is a valid no-op.
	var nilM *pipeline.Metrics
	if s := nilM.Snapshot(); s.Queries != 0 {
		t.Fatal("nil metrics snapshot non-zero")
	}
}

// TestExplainFormat sanity-checks the textual tree (the golden-file
// test for full output lives in core, next to ExplainAnalyze).
func TestExplainFormat(t *testing.T) {
	sys := testSystem(t)
	expl, err := sys.ExplainAnalyze(context.Background(), []string{"john", "vcr"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	text := expl.Format()
	for _, want := range []string{"EXPLAIN ANALYZE", "mode=topk k=10", "discover", "generate",
		"reduce", "optimize", "execute", "rank", "memo=miss"} {
		if !strings.Contains(text, want) {
			t.Fatalf("formatted explain missing %q:\n%s", want, text)
		}
	}
}
