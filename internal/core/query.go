package core

import (
	"context"

	"repro/internal/cn"
	"repro/internal/exec"
	"repro/internal/kwindex"
	"repro/internal/optimizer"
	"repro/internal/pipeline"
	"repro/internal/rank"
)

// scorer resolves the System's configured default scorer. Opts.Scorer
// is validated by LoadPrepared and by every flag surface; an invalid
// name reaching this point is a programming error and panics rather
// than silently ranking by the wrong order.
func (s *System) scorer() rank.Scorer {
	sc, err := rank.New(s.Opts.Scorer)
	if err != nil {
		panic(err)
	}
	return sc
}

// ResolveScorer resolves a per-query scorer name: "" falls back to the
// System default, anything else must name a shipped scorer.
func (s *System) ResolveScorer(name string) (rank.Scorer, error) {
	if name == "" {
		name = s.Opts.Scorer
	}
	return rank.New(name)
}

// Run drives a query through the pipeline over the System's current
// backends: the one way into the query path besides QueryScoredContext.
// The caller sets the request fields of q (Keywords, Mode, K, Strategy,
// Scorer, Trace) and reads the stage outputs after Run returns. The
// pipeline is assembled per call, so swapping System.Index (e.g. to a
// disk-backed reader) or toggling options takes effect on the next
// query; the stages themselves are stateless and the memo and metrics
// sinks are shared.
func (s *System) Run(ctx context.Context, q *pipeline.Query) error {
	return s.PipelineWith(s.Index).Run(ctx, q)
}

// PipelineWith assembles the staged query path over the System's
// structural data (schema, TSS, store, decomposition) with the given
// master-index source. Run uses it with System.Index; the scatter-gather
// serving path uses it with a query-scoped source carrying globally
// merged postings, so every shard derives the exact plan list a single
// node would. The shape memo is shared between the two: it is keyed by
// keyword shape, which the source fully determines, and templates hold
// nothing read from an index.
func (s *System) PipelineWith(ix kwindex.Source) *pipeline.Pipeline {
	return pipeline.New(pipeline.Config{
		Schema:        s.Schema,
		TSS:           s.TSS,
		Index:         ix,
		Z:             s.Opts.Z,
		StrictMinimal: s.Opts.StrictMinimal,
		Scorer:        s.scorer(),
		Relax:         s.Opts.Relax,
		Shapes:        s.shapes,
		NewOptimizer:  s.optimizerWith,
		NewExecutor:   s.Executor,
		Metrics:       s.metrics,
	})
}

// optimizerWith builds the plan optimizer over the loaded decomposition
// with the given master-index source.
func (s *System) optimizerWith(ix kwindex.Source) *optimizer.Optimizer {
	return &optimizer.Optimizer{
		TSS:       s.TSS,
		Store:     s.Store,
		Index:     ix,
		Stats:     s.Stats,
		Fragments: s.Decomp.Fragments,
		MaxJoins:  s.Opts.B,
	}
}

// Executor builds the serving executor over the System's connection
// store: the naive nested loop, with no lookup memo (the §6 memo is
// measured by the experiments, which build their own cached executors).
// Plans carry their keyword filters, so the executor reads no index.
func (s *System) Executor() *exec.Executor {
	return &exec.Executor{Store: s.Store, TSS: s.TSS}
}

// Networks runs the keyword discoverer, the CN generator and the CTSSN
// reduction for a keyword query and returns the candidate TSS networks
// in ascending score order (paper §4). Keywords are tokenized
// case-insensitively. A cancelled ctx stops the call with ctx's error.
func (s *System) Networks(ctx context.Context, keywords []string) ([]*cn.TSSNetwork, error) {
	q := &pipeline.Query{Keywords: keywords, Mode: pipeline.ModeNetworks}
	if err := s.Run(ctx, q); err != nil {
		return nil, err
	}
	return q.Nets, nil
}

// Plans generates and optimizes the plans of a keyword query, in
// ascending score order.
func (s *System) Plans(keywords []string) ([]*optimizer.Plan, error) {
	q := &pipeline.Query{Keywords: keywords, Mode: pipeline.ModePlans}
	if err := s.Run(context.Background(), q); err != nil {
		return nil, err
	}
	return q.Plans, nil
}

// Query answers a keyword proximity query with the top-k results,
// evaluated over the candidate networks smallest-first (the
// web-search-engine-like presentation of §3.1/§6) and ranked by the
// System's default scorer.
func (s *System) Query(keywords []string, k int) ([]exec.Result, error) {
	rs, _, err := s.QueryScoredContext(context.Background(), keywords, k, "")
	return rs, err
}

// QueryScoredContext answers a top-k keyword query ranked by the named
// scorer ("" falls back to Opts.Scorer, then to edgecount, the paper's
// ranking). It is the serving entry point: qserve, the scatter-gather
// coordinator and the web demo all answer through it. k ≤ 0 asks for
// nothing and gets no results, whatever the scorer (pipeline.Run's
// rule, which the coordinator's pipeline shares). A cancelled context
// stops the in-flight join loops and the call returns ctx's error
// (partial results are discarded). The returned Relaxation is non-nil exactly when
// Opts.Relax is on and the query was rewritten to be answerable;
// callers must surface it.
func (s *System) QueryScoredContext(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *pipeline.Relaxation, error) {
	sc, err := s.ResolveScorer(scorer)
	if err != nil {
		return nil, nil, err
	}
	q := &pipeline.Query{
		Keywords: keywords,
		Mode:     pipeline.ModeTopK,
		K:        k,
		Strategy: exec.NestedLoop,
		Scorer:   sc,
	}
	if err := s.Run(ctx, q); err != nil {
		return nil, nil, err
	}
	return q.Results, q.Relaxation, nil
}

// QueryAll returns every result of every candidate network, ranked by
// the System's default scorer, using the automatic strategy (hash joins
// on unindexed decompositions, nested loops otherwise).
func (s *System) QueryAll(keywords []string) ([]exec.Result, error) {
	q := &pipeline.Query{Keywords: keywords, Mode: pipeline.ModeAll, Strategy: exec.AutoStrategy}
	if err := s.Run(context.Background(), q); err != nil {
		return nil, err
	}
	return q.Results, nil
}
