package core

import (
	"context"

	"repro/internal/cn"
	"repro/internal/exec"
	"repro/internal/kwindex"
	"repro/internal/lru"
	"repro/internal/optimizer"
	"repro/internal/pipeline"
	"repro/internal/rank"
)

// netMemo is the per-System shape memo: what the query stage derives
// from a keyword query depends, up to the point containing-list sizes
// pick each plan's seed, only on the query's shape — which schema nodes
// hold each keyword, under which Z, and which keywords are equal — not
// on the keyword strings, so queries with the same shape (e.g. any two
// author names) share one derivation: the pipeline.Template compiled
// from the shape's generic candidate networks. The memo is a bounded
// exact LRU owned by one System: it used to be a package-global
// sync.Map keyed by *schema.Graph, which leaked every loaded system's
// networks for the life of the process.
type netMemo struct {
	c *lru.Cache[string, *pipeline.Template]
}

// netMemoCap bounds the distinct keyword shapes memoized per System.
const netMemoCap = 256

func newNetMemo(capacity int) *netMemo {
	return &netMemo{lru.New(lru.Config[string, *pipeline.Template]{MaxEntries: capacity})}
}

func (mm *netMemo) len() int { return mm.c.Len() }

// Template and PutTemplate implement pipeline.TemplateCache.
func (mm *netMemo) Template(sig string) (*pipeline.Template, bool) { return mm.c.Get(sig) }

// PutTemplate publishes a shape's compiled template.
func (mm *netMemo) PutTemplate(sig string, t *pipeline.Template) { mm.c.Put(sig, t) }

// newPipeline assembles the staged query path over the System's current
// backends. Built per call so swapping System.Index (e.g. to a
// disk-backed reader) or toggling options keeps taking effect exactly as
// it did when the query path read the fields directly; the stages
// themselves are stateless and the memo and metrics sinks are shared.
func (s *System) newPipeline() *pipeline.Pipeline {
	return pipeline.New(pipeline.Config{
		Schema:        s.Schema,
		TSS:           s.TSS,
		Index:         s.Index,
		Z:             s.Opts.Z,
		StrictMinimal: s.Opts.StrictMinimal,
		Scorer:        s.scorer(),
		Relax:         s.Opts.Relax,
		Templates:     s.memo(),
		NewOptimizer:  s.newOptimizer,
		NewExecutor:   s.newExecutor,
		Metrics:       s.PipelineMetrics(),
	})
}

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

// resolveScorer resolves a per-query scorer name: "" falls back to the
// System default, anything else must name a shipped scorer.
func (s *System) resolveScorer(name string) (rank.Scorer, error) {
	if name == "" {
		name = s.Opts.Scorer
	}
	return rank.New(name)
}

// run drives a query through the pipeline.
func (s *System) run(ctx context.Context, q *pipeline.Query) error {
	return s.newPipeline().Run(ctx, q)
}

// PipelineWith assembles the staged query path over the System's
// structural data (schema, TSS, store, decomposition) with a substitute
// master-index source. The scatter-gather serving path uses it to run
// discovery, CN generation and planning against a query-scoped source
// carrying globally merged postings, so every shard derives the exact
// plan list a single node would. The shape memo is shared with the
// normal path: it is keyed by keyword shape, which the source fully
// determines, and templates hold nothing read from an index.
func (s *System) PipelineWith(ix kwindex.Source) *pipeline.Pipeline {
	return pipeline.New(pipeline.Config{
		Schema:        s.Schema,
		TSS:           s.TSS,
		Index:         ix,
		Z:             s.Opts.Z,
		StrictMinimal: s.Opts.StrictMinimal,
		Scorer:        s.scorer(),
		Relax:         s.Opts.Relax,
		Templates:     s.memo(),
		NewOptimizer:  func() *optimizer.Optimizer { return s.newOptimizerWith(ix) },
		NewExecutor:   func() *exec.Executor { return s.newExecutorWith(ix) },
		Metrics:       s.PipelineMetrics(),
	})
}

// ExecutorWith builds an executor over the System's connection store
// with a substitute master-index source (keyword-filter pushdown and
// minimality checks read the index).
func (s *System) ExecutorWith(ix kwindex.Source) *exec.Executor {
	return s.newExecutorWith(ix)
}

// Networks runs the keyword discoverer, the CN generator and the CTSSN
// reduction for a keyword query and returns the candidate TSS networks
// in ascending score order (paper §4). Keywords are tokenized
// case-insensitively.
func (s *System) Networks(keywords []string) ([]*cn.TSSNetwork, error) {
	q := &pipeline.Query{Keywords: keywords, Mode: pipeline.ModeNetworks}
	if err := s.run(context.Background(), q); err != nil {
		return nil, err
	}
	return q.Nets, nil
}

// newExecutor builds the serving executor: the naive nested loop, with
// no lookup memo (the §6 memo is measured by the experiments, which
// build their own cached executors).
func (s *System) newExecutor() *exec.Executor { return s.newExecutorWith(s.Index) }

func (s *System) newExecutorWith(ix kwindex.Source) *exec.Executor {
	return &exec.Executor{Store: s.Store, TSS: s.TSS, Index: ix}
}

// newOptimizer builds the plan optimizer over the loaded decomposition.
func (s *System) newOptimizer() *optimizer.Optimizer { return s.newOptimizerWith(s.Index) }

func (s *System) newOptimizerWith(ix kwindex.Source) *optimizer.Optimizer {
	return &optimizer.Optimizer{
		TSS:       s.TSS,
		Store:     s.Store,
		Index:     ix,
		Stats:     s.Stats,
		Fragments: s.Decomp.Fragments,
		MaxJoins:  s.Opts.B,
	}
}

// Plans generates and optimizes the plans of a keyword query, in
// ascending score order.
func (s *System) Plans(keywords []string) ([]exec.Planned, error) {
	q := &pipeline.Query{Keywords: keywords, Mode: pipeline.ModePlans}
	if err := s.run(context.Background(), q); err != nil {
		return nil, err
	}
	return q.Plans, nil
}

// Query answers a keyword proximity query with the top-k results,
// evaluated over the candidate networks smallest-first (the
// web-search-engine-like presentation of §3.1/§6).
func (s *System) Query(keywords []string, k int) ([]exec.Result, error) {
	return s.QueryContext(context.Background(), keywords, k)
}

// QueryContext is Query with cooperative cancellation: a cancelled
// context stops the in-flight join loops and the call returns ctx's
// error (the partial results are discarded).
func (s *System) QueryContext(ctx context.Context, keywords []string, k int) ([]exec.Result, error) {
	q := &pipeline.Query{
		Keywords: keywords,
		Mode:     pipeline.ModeTopK,
		K:        k,
		Strategy: exec.NestedLoop,
	}
	if err := s.run(ctx, q); err != nil {
		return nil, err
	}
	return q.Results, nil
}

// QueryScoredContext answers a top-k keyword query ranked by the named
// scorer ("" falls back to Opts.Scorer, then to edgecount — the
// paper's ranking, byte-identical to QueryContext). The returned
// Relaxation is non-nil exactly when Opts.Relax is on and the query was
// rewritten to be answerable; callers must surface it.
func (s *System) QueryScoredContext(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *pipeline.Relaxation, error) {
	sc, err := s.resolveScorer(scorer)
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
	if err := s.run(ctx, q); err != nil {
		return nil, nil, err
	}
	return q.Results, q.Relaxation, nil
}

// QueryAllScoredContext is QueryScoredContext without the top-k bound:
// every result of every candidate network, ranked by the named scorer,
// using the automatic evaluation strategy.
func (s *System) QueryAllScoredContext(ctx context.Context, keywords []string, scorer string) ([]exec.Result, *pipeline.Relaxation, error) {
	sc, err := s.resolveScorer(scorer)
	if err != nil {
		return nil, nil, err
	}
	q := &pipeline.Query{
		Keywords: keywords,
		Mode:     pipeline.ModeAll,
		Strategy: exec.AutoStrategy,
		Scorer:   sc,
	}
	if err := s.run(ctx, q); err != nil {
		return nil, nil, err
	}
	return q.Results, q.Relaxation, nil
}

// QueryStream starts the page-by-page presentation of §3.1: a producer
// evaluates the candidate networks smallest-first into a queue the
// caller drains with Stream.Next. Close the stream when done.
func (s *System) QueryStream(keywords []string) (*exec.Stream, error) {
	return s.QueryStreamContext(context.Background(), keywords)
}

// QueryStreamContext is QueryStream tied to a context: cancelling ctx
// closes the stream and stops its producer mid-join. The caller should
// still Close the stream when done.
func (s *System) QueryStreamContext(ctx context.Context, keywords []string) (*exec.Stream, error) {
	q := &pipeline.Query{
		Keywords: keywords,
		Mode:     pipeline.ModeStream,
		Strategy: exec.NestedLoop,
	}
	if err := s.run(ctx, q); err != nil {
		return nil, err
	}
	return q.Stream, nil
}

// QueryAll returns every result of every candidate network, sorted by
// score, using the automatic strategy (hash joins on unindexed
// decompositions, nested loops otherwise).
func (s *System) QueryAll(keywords []string) ([]exec.Result, error) {
	return s.QueryAllStrategy(keywords, exec.AutoStrategy)
}

// QueryAllContext is QueryAll with cooperative cancellation.
func (s *System) QueryAllContext(ctx context.Context, keywords []string) ([]exec.Result, error) {
	return s.QueryAllStrategyContext(ctx, keywords, exec.AutoStrategy)
}

// QueryAllStrategy is QueryAll with an explicit evaluation strategy.
func (s *System) QueryAllStrategy(keywords []string, strat exec.Strategy) ([]exec.Result, error) {
	return s.QueryAllStrategyContext(context.Background(), keywords, strat)
}

// QueryAllStrategyContext is QueryAllStrategy with cooperative
// cancellation: a cancelled context terminates the in-flight plan
// evaluation and the call returns ctx's error.
func (s *System) QueryAllStrategyContext(ctx context.Context, keywords []string, strat exec.Strategy) ([]exec.Result, error) {
	q := &pipeline.Query{
		Keywords: keywords,
		Mode:     pipeline.ModeAll,
		Strategy: strat,
	}
	if err := s.run(ctx, q); err != nil {
		return nil, err
	}
	return q.Results, nil
}
