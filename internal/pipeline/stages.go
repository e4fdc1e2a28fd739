package pipeline

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cn"
	"repro/internal/exec"
	"repro/internal/kwindex"
	"repro/internal/optimizer"
	"repro/internal/rank"
	"repro/internal/schema"
	"repro/internal/tss"
)

// TemplateCache memoizes the compiled Template per keyword-shape
// signature — core's per-System bounded LRU, the shape memo. It must be
// safe for concurrent use.
type TemplateCache interface {
	Template(sig string) (*Template, bool)
	PutTemplate(sig string, t *Template)
}

// Config assembles the default stages over a loaded system's parts.
type Config struct {
	Schema *schema.Graph
	TSS    *tss.Graph
	// Index is the master index backend (in-memory or disk-backed).
	Index kwindex.Source
	// Z is the maximum MTNN size of interest.
	Z int
	// Workers sizes the execute stage's worker pool.
	Workers int
	// StrictMinimal makes the rank stage drop non-minimal results.
	StrictMinimal bool
	// Scorer, when non-nil, re-ranks results in the rank stage. nil (or
	// rank.EdgeCount) keeps the canonical (Score, Ord) order and the
	// early-terminating top-k execution — byte-identical to the
	// pre-scorer engine. A query may override it via Query.Scorer.
	Scorer rank.Scorer
	// Relax lets the discover stage rewrite no-match keywords
	// (substitute or drop, recorded in Query.Relaxation) instead of
	// letting the query return zero results.
	Relax bool
	// Templates, when non-nil, memoizes the derivation per keyword
	// shape; without it every query compiles its own template.
	Templates TemplateCache
	// NewOptimizer builds the plan optimizer (per query).
	NewOptimizer func() *optimizer.Optimizer
	// NewExecutor builds the executor honoring the cache options (per
	// query; the lookup cache is shared across the query's plans).
	NewExecutor func() *exec.Executor
	// Metrics, when non-nil, accumulates cross-query stage statistics.
	Metrics *Metrics
}

// New builds the default pipeline over a configuration.
func New(cfg Config) *Pipeline {
	c := &cfg
	return &Pipeline{
		Discover: discoverStage{c},
		Generate: generateStage{c},
		Reduce:   reduceStage{c},
		Optimize: optimizeStage{c},
		Execute:  executeStage{c},
		Rank:     rankStage{c},
		Metrics:  cfg.Metrics,
	}
}

// scorerFor resolves a query's effective scorer: the per-query
// override, else the pipeline's configured one (nil = default).
func (c *Config) scorerFor(q *Query) rank.Scorer {
	if q.Scorer != nil {
		return q.Scorer
	}
	return c.Scorer
}

// ShapeSignature encodes a keyword query's shape — which schema nodes
// hold each keyword, under which Z — as the CN memo key. Every node
// name is length-prefixed, so names containing separator characters
// cannot collide two different shapes (the old "," / ";" joined
// encoding could).
func ShapeSignature(z int, nodeLists [][]string) string {
	var sb strings.Builder
	sb.WriteString("z=")
	sb.WriteString(strconv.Itoa(z))
	for _, nodes := range nodeLists {
		sb.WriteByte('|')
		sb.WriteString(strconv.Itoa(len(nodes)))
		for _, n := range nodes {
			sb.WriteByte(':')
			sb.WriteString(strconv.Itoa(len(n)))
			sb.WriteByte(':')
			sb.WriteString(n)
		}
	}
	return sb.String()
}

// equalitySignature encodes which keywords of a query are the same
// keyword ("chen chen"): per keyword, the first position holding it. It
// is part of the memo key because isomorphism dedup depends on it — two
// networks that differ only by swapping two equal keywords are one
// network.
func equalitySignature(norm []string) string {
	var sb strings.Builder
	sb.WriteString("|=")
	for _, first := range equalityClasses(norm) {
		sb.WriteByte('.')
		sb.WriteString(strconv.Itoa(first))
	}
	return sb.String()
}

// discoverStage tokenizes the keywords and looks up, per keyword, the
// schema nodes whose extensions contain it (the containing-list heads
// of §4). Out is the total number of keyword→schema-node pairs.
type discoverStage struct{ cfg *Config }

func (s discoverStage) Name() string { return StageDiscover }

func (s discoverStage) Run(ctx context.Context, q *Query, rep *StageReport) error {
	if len(q.Keywords) == 0 {
		return fmt.Errorf("pipeline: empty keyword query")
	}
	rep.In = int64(len(q.Keywords))
	// The effective keyword arrays stay parallel: with relaxation off
	// (or unneeded) they are exactly the request's, byte for byte.
	keywords := make([]string, 0, len(q.Keywords))
	norm := make([]string, 0, len(q.Keywords))
	nodeLists := make([][]string, 0, len(q.Keywords))
	var rx *Relaxation
	var rxParts []string
	for _, k := range q.Keywords {
		toks := kwindex.Tokenize(k)
		if len(toks) == 0 {
			return fmt.Errorf("pipeline: keyword %q has no tokens", k)
		}
		n := toks[0]
		if len(toks) > 1 {
			// Multi-token keywords match nodes containing all tokens;
			// the master index handles that, keyed by the raw phrase.
			n = k
		}
		nodes := s.cfg.Index.SchemaNodes(n)
		if len(nodes) == 0 && s.cfg.Relax {
			// No-match relaxation: a multi-token phrase falls back to its
			// first individually-matching token; a keyword with no match
			// at all is dropped. Either way the rewrite is recorded — a
			// relaxed answer must never look like an exact one.
			if rx == nil {
				rx = &Relaxation{}
			}
			sub := ""
			if len(toks) > 1 {
				for _, t := range toks {
					if ns := s.cfg.Index.SchemaNodes(t); len(ns) > 0 {
						sub, nodes = t, ns
						break
					}
				}
			}
			if sub == "" {
				rx.Dropped = append(rx.Dropped, k)
				rxParts = append(rxParts, "dropped "+quoteKw(k))
				continue
			}
			if rx.Substituted == nil {
				rx.Substituted = make(map[string]string)
			}
			rx.Substituted[k] = sub
			rxParts = append(rxParts, "substituted "+quoteKw(k)+" -> "+quoteKw(sub))
			n = sub
		}
		keywords = append(keywords, k)
		norm = append(norm, n)
		nodeLists = append(nodeLists, nodes)
		rep.Out += int64(len(nodes))
	}
	if rx != nil {
		rx.Detail = relaxDetail(rxParts)
		q.Relaxation = rx
		rep.Note = "relaxed: " + rx.Detail
	}
	if len(keywords) == 0 {
		// Relaxation dropped every keyword: the query is fully answered
		// (with nothing) here; later stages have no keywords to work on.
		q.halt = true
		q.Results = nil
		return nil
	}
	q.Keywords = keywords
	q.Norm = norm
	q.NodeLists = nodeLists
	q.Sig = ShapeSignature(s.cfg.Z, q.NodeLists) + equalitySignature(q.Norm)
	return nil
}

// generateStage fetches the query shape's compiled Template — from the
// shape memo when one is configured; a miss runs the CN generator (§4)
// and compiles the template, then publishes it — and substitutes the
// query's keywords for the generic networks' positional placeholders.
// Out is the number of candidate networks.
type generateStage struct{ cfg *Config }

func (s generateStage) Name() string { return StageGenerate }

func (s generateStage) Run(ctx context.Context, q *Query, rep *StageReport) error {
	rep.In = int64(len(q.Keywords))
	var err error
	if q.tmpl, rep.Cached, err = s.template(q); err != nil {
		return err
	}
	if rep.Cached {
		rep.CacheHits = 1
	} else {
		rep.CacheMisses = 1
	}
	q.CNs = q.tmpl.candidates(q.Norm)
	rep.Out = int64(len(q.CNs))
	return nil
}

// template returns the compiled template of the query's shape and
// whether the memo already held it.
func (s generateStage) template(q *Query) (*Template, bool, error) {
	memo := s.cfg.Templates
	if memo != nil {
		if t, ok := memo.Template(q.Sig); ok {
			return t, true, nil
		}
	}
	phKeywords := make([]string, len(q.Keywords))
	phNodes := make(map[string][]string, len(q.Keywords))
	for i := range q.Keywords {
		phKeywords[i] = placeholder(i)
		phNodes[phKeywords[i]] = q.NodeLists[i]
	}
	generic, err := cn.Generate(cn.Input{
		Schema:        s.cfg.Schema,
		Keywords:      phKeywords,
		SchemaNodesOf: phNodes,
		MaxSize:       s.cfg.Z,
	})
	if err != nil {
		return nil, false, err
	}
	t, err := s.cfg.compile(generic, q.Norm)
	if err != nil {
		return nil, false, err
	}
	if memo != nil {
		memo.PutTemplate(q.Sig, t)
	}
	return t, false, nil
}

// reduceStage instantiates the template's CTSSNs — each candidate
// network reduced, the lowest-score CN kept per distinct shape, sorted
// ascending by score, the order the execute stage's smallest-first
// scheduling relies on — with the query's keywords.
type reduceStage struct{ cfg *Config }

func (s reduceStage) Name() string { return StageReduce }

func (s reduceStage) Run(ctx context.Context, q *Query, rep *StageReport) error {
	rep.In = int64(len(q.CNs))
	if q.tmpl == nil {
		return fmt.Errorf("pipeline: reduce needs the template the generate stage sets")
	}
	if n := len(q.tmpl.nets); n > 0 {
		q.Nets = make([]*cn.TSSNetwork, n)
	}
	for i := range q.Nets {
		q.Nets[i] = q.tmpl.network(i, q.Norm, q.CNs)
	}
	rep.Out = int64(len(q.Nets))
	return nil
}

// optimizeStage turns each CTSSN into an execution plan (§5): the
// fragment cover and step orders come compiled with the template; what
// is left per query is reading each distinct (keyword, schema node) TO
// set once, choosing every plan's seed from its filter sizes and
// binding that seed's steps.
type optimizeStage struct{ cfg *Config }

func (s optimizeStage) Name() string { return StageOptimize }

func (s optimizeStage) Run(ctx context.Context, q *Query, rep *StageReport) error {
	rep.In = int64(len(q.Nets))
	opt := s.cfg.NewOptimizer()
	sets := make(optimizer.TOSets)
	var plans []exec.Planned
	for i, tn := range q.Nets {
		if q.Own != nil && !q.Own(i) {
			plans = append(plans, exec.Planned{})
			continue
		}
		nt := &q.tmpl.nets[i]
		err := nt.err
		var p *optimizer.Plan
		if err == nil {
			p, err = opt.Bind(nt.shape, tn, sets)
		}
		if err != nil {
			return fmt.Errorf("pipeline: planning %s: %w", tn, err)
		}
		plans = append(plans, exec.Planned{Plan: p})
		rep.Out++
	}
	q.Plans = plans
	return nil
}

// executeStage evaluates the plans (§6) in the query's mode: top-K
// through the smallest-first worker pool, all results plan by plan
// through one shared lookup cache, or a started stream. Cache traffic is
// the executor lookup cache's hit/miss counts.
type executeStage struct{ cfg *Config }

func (s executeStage) Name() string { return StageExecute }

func (s executeStage) Run(ctx context.Context, q *Query, rep *StageReport) error {
	rep.In = int64(len(q.Plans))
	rep.Note = q.Mode.String()
	switch q.Mode {
	case ModeTopK:
		if err := ctx.Err(); err != nil {
			return err
		}
		if !rank.IsDefault(s.cfg.scorerFor(q)) {
			// Early termination is only sound for the canonical (Score,
			// Ord) order: a non-default scorer may promote a result the
			// top-k pool would prune, so evaluate every plan fully and
			// let the rank stage truncate after re-scoring.
			rep.Note = "topk(full)"
			return s.runAll(ctx, q, rep)
		}
		ex := s.cfg.NewExecutor()
		out, err := exec.TopKPlansContext(ctx, ex, q.Plans, exec.TopKOptions{
			K:        q.K,
			Workers:  s.cfg.Workers,
			Strategy: q.Strategy,
		})
		recordLookups(ex, rep)
		if err != nil {
			return err
		}
		q.Results = out
	case ModeAll:
		if err := s.runAll(ctx, q, rep); err != nil {
			return err
		}
	case ModeStream:
		q.Stream = exec.StreamPlansContext(ctx, s.cfg.NewExecutor(), q.Plans, s.cfg.Workers, q.Strategy)
	default:
		return fmt.Errorf("pipeline: mode %v does not execute", q.Mode)
	}
	rep.Out = int64(len(q.Results))
	return nil
}

// runAll evaluates every plan to completion in plan order, stamping the
// canonical (plan, sequence) Ord — the ModeAll body, shared by the
// full-enumeration top-k path.
func (s executeStage) runAll(ctx context.Context, q *Query, rep *StageReport) error {
	ex := s.cfg.NewExecutor()
	var out []exec.Result
	for pi, p := range q.Plans {
		n := 0
		if err := ex.RunContext(ctx, p.Plan, q.Strategy, func(r exec.Result) bool {
			r.Ord = exec.MakeOrd(pi, n)
			n++
			out = append(out, r)
			return true
		}); err != nil {
			recordLookups(ex, rep)
			return err
		}
	}
	recordLookups(ex, rep)
	q.Results = out
	rep.Out = int64(len(out))
	return nil
}

// recordLookups copies the executor lookup cache's counters into the
// stage report.
func recordLookups(ex *exec.Executor, rep *StageReport) {
	if ex.Cache == nil {
		return
	}
	rep.CacheHits, rep.CacheMisses = ex.Cache.Stats()
}

// rankStage is the single place results are ordered and filtered: full
// result sets are sorted ascending by score (top-K sets arrive sorted
// and truncated from the worker pool), and StrictMinimal drops results
// violating §3.1's strict MTNN minimality.
type rankStage struct{ cfg *Config }

func (s rankStage) Name() string { return StageRank }

func (s rankStage) Run(ctx context.Context, q *Query, rep *StageReport) error {
	rep.In = int64(len(q.Results))
	sc := s.cfg.scorerFor(q)
	if q.Mode == ModeAll || (q.Mode == ModeTopK && !rank.IsDefault(sc)) {
		// (Score, Ord) is the canonical total order; for ModeAll's
		// sequential plan-by-plan enumeration it coincides with the
		// previous stable sort by score, but naming it here keeps every
		// ranked surface (this stage, the top-k pool, the scatter-gather
		// coordinator's merge) on one deterministic order. The
		// full-enumeration top-k path lands here too: scorers receive
		// their input canonically ordered (the tie-break they contract
		// to preserve).
		sort.Slice(q.Results, func(i, j int) bool { return exec.OrdLess(q.Results[i], q.Results[j]) })
	}
	if s.cfg.StrictMinimal {
		out := q.Results[:0]
		for _, r := range q.Results {
			if exec.IsMinimal(s.cfg.Index, r) {
				out = append(out, r)
			}
		}
		q.Results = out
	}
	if !rank.IsDefault(sc) {
		// Minimality filtering runs first so scorers rank exactly the
		// result set the caller will see.
		k := 0
		if q.Mode == ModeTopK {
			k = q.K
		}
		q.Results = sc.Rank(rank.Context{
			TSS:      s.cfg.TSS,
			Index:    s.cfg.Index,
			Keywords: q.Norm,
		}, q.Results, k)
		rep.Note = "scorer=" + sc.Name()
	}
	rep.Out = int64(len(q.Results))
	return nil
}
