// Package pipeline is the explicit staged form of XKeyword's query path
// (paper §4–§6): keyword discovery against the master index, candidate
// network generation (§4), CTSSN reduction (§5.1 of Figure 7's query
// stage), plan optimization (§5), execution (§6) and result ranking.
// Every query of core.System — System.Run, the serving entry point
// QueryScoredContext, and the thin wrappers over them (Query, QueryAll,
// Networks, Plans, ExplainAnalyze) — is one Run call, as is every
// query of the scatter-gather coordinator and its shards, so each
// stage's duration, input/output cardinality and cache behaviour are
// measured in exactly one place: per query into an obs.Trace (EXPLAIN
// ANALYZE), and cumulatively into a Metrics sink (the /debug/pipeline
// endpoint).
package pipeline

import (
	"context"
	"slices"
	"time"

	"repro/internal/cn"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/rank"
)

// Mode selects how far a Run proceeds and how the execute stage
// evaluates the plans.
type Mode int

const (
	// ModeNetworks stops after CTSSN reduction (core.Networks).
	ModeNetworks Mode = iota
	// ModePlans stops after plan optimization (core.Plans).
	ModePlans
	// ModeTopK evaluates top-K smallest-first, stopping early.
	ModeTopK
	// ModeAll evaluates every plan to completion.
	ModeAll
)

// String names the mode for traces and EXPLAIN output.
func (m Mode) String() string {
	switch m {
	case ModeNetworks:
		return "networks"
	case ModePlans:
		return "plans"
	case ModeTopK:
		return "topk"
	case ModeAll:
		return "all"
	}
	return "unknown"
}

// Stage names in pipeline order. Indexes align with the stage sequence
// Run executes and with Metrics' per-stage slots.
const (
	StageDiscover = "discover"
	StageGenerate = "generate"
	StageReduce   = "reduce"
	StageOptimize = "optimize"
	StageExecute  = "execute"
	StageRank     = "rank"
)

// StageNames lists the stages in execution order.
var StageNames = [...]string{
	StageDiscover, StageGenerate, StageReduce, StageOptimize, StageExecute, StageRank,
}

// numStages is the pipeline depth.
const numStages = 6

// Query is one keyword query moving through the pipeline: the request
// fields configure a Run, the remaining fields are filled stage by
// stage and read by the caller afterwards.
type Query struct {
	// Keywords is the raw keyword list.
	Keywords []string
	// Mode selects the stage prefix and the execution shape.
	Mode Mode
	// K is the result bound for ModeTopK.
	K int
	// Strategy is the evaluation strategy for execute.
	Strategy exec.Strategy
	// Trace, when non-nil, collects one obs.Span per stage.
	Trace *obs.Trace
	// Scorer, when non-nil, overrides the pipeline's configured result
	// scorer for this query (see Config.Scorer).
	Scorer rank.Scorer
	// Own, when non-nil, restricts the optimize stage to the plans whose
	// index it accepts: Plans stays index-aligned with Nets and holds a
	// nil Plan at every other index. For ModePlans callers that execute
	// a share of the plan list themselves (a scatter-gather shard plans
	// only the residue classes it was assigned); the executing modes
	// need every plan.
	Own func(plan int) bool

	// Norm holds the normalized keywords (set by discover). When the
	// query was relaxed, Keywords/Norm/NodeLists hold the effective
	// (kept) keywords; Relaxation records what changed.
	Norm []string
	// NodeLists holds, per keyword, the schema nodes whose extensions
	// contain it (set by discover).
	NodeLists [][]string
	// Sig is the keyword-shape signature keying the CN memo (set by
	// discover, length-prefixed so node names cannot collide shapes).
	Sig string
	// CNs are the candidate networks with this query's keywords
	// substituted in (set by generate).
	CNs []*cn.Network
	// Nets are the distinct candidate TSS networks in ascending score
	// order (set by reduce).
	Nets []*cn.TSSNetwork
	// Plans are the optimized execution plans, same order (set by
	// optimize).
	Plans []exec.Planned
	// Results is the final result list (set by execute and rank).
	Results []exec.Result
	// Relaxation records how discover rewrote a no-match query. Set only
	// when Config.Relax is on and at least one keyword had no match;
	// nil means the query ran exactly as asked.
	Relaxation *Relaxation

	// sets holds, per (keyword, schema node) pair of NodeLists, the
	// ascending TO set (set by discover from the one containing-list
	// read per keyword; optimize's filters read it).
	sets optimizer.TOSets
	// tmpl is the query shape's compiled template (set by generate);
	// reduce and optimize instantiate from it.
	tmpl *Template
	// halt is set by a stage that has fully answered the query (e.g.
	// discover relaxing away every keyword); Run stops after it.
	halt bool
}

// KeywordTOs returns, per distinct keyword of the query, the ascending
// TOs containing it on any schema node: the union of discover's
// per-schema-node sets, as exec.IsMinimal reads them.
func (q *Query) KeywordTOs() map[string][]int64 {
	out := make(map[string][]int64, len(q.Norm))
	for i, k := range q.Norm {
		if _, ok := out[k]; ok {
			continue
		}
		var all []int64
		for _, n := range q.NodeLists[i] {
			all = append(all, q.sets[cn.KeywordAt{Keyword: k, SchemaNode: n}]...)
		}
		slices.Sort(all)
		out[k] = slices.Compact(all)
	}
	return out
}

// StageReport is what a stage tells the driver about its work. The
// driver times the stage itself; the stage fills cardinality and cache
// traffic. A report is stack-allocated per stage, so reporting costs
// nothing when tracing is disabled.
type StageReport struct {
	In, Out     int64
	CacheHits   int64
	CacheMisses int64
	Cached      bool
	Note        string
}

// Stage is one step of the query pipeline.
type Stage interface {
	// Name returns the stage's fixed name (one of StageNames).
	Name() string
	// Run advances the query, filling rep with cardinality and cache
	// counts. Stages must be safe for concurrent use: one Pipeline
	// serves all of a System's queries.
	Run(ctx context.Context, q *Query, rep *StageReport) error
}

// Pipeline is the staged query path. Build one with New, or assemble
// custom stages directly for tests and ablations.
type Pipeline struct {
	Discover Stage
	Generate Stage
	Reduce   Stage
	Optimize Stage
	Execute  Stage
	Rank     Stage

	// Metrics, when non-nil, accumulates per-stage counters and latency
	// histograms across queries.
	Metrics *Metrics
}

// stagesFor returns the stage prefix a mode runs.
func (p *Pipeline) stagesFor(mode Mode) []Stage {
	stages := []Stage{p.Discover, p.Generate, p.Reduce}
	if mode == ModeNetworks {
		return stages
	}
	stages = append(stages, p.Optimize)
	if mode == ModePlans {
		return stages
	}
	return append(stages, p.Execute, p.Rank)
}

// Run drives the query through the stage prefix its mode selects,
// recording one span per stage into q.Trace (if enabled) and into
// p.Metrics (if set).
func (p *Pipeline) Run(ctx context.Context, q *Query) error {
	for i, st := range p.stagesFor(q.Mode) {
		var rep StageReport
		start := time.Now()
		err := st.Run(ctx, q, &rep)
		dur := time.Since(start)
		q.Trace.Add(obs.Span{
			Stage:       st.Name(),
			Start:       start,
			Duration:    dur,
			In:          rep.In,
			Out:         rep.Out,
			CacheHits:   rep.CacheHits,
			CacheMisses: rep.CacheMisses,
			Cached:      rep.Cached,
			Note:        rep.Note,
		})
		p.Metrics.observe(i, dur, &rep, err)
		if err != nil {
			return err
		}
		if q.halt {
			break
		}
	}
	p.Metrics.finish(q.Mode)
	return nil
}
