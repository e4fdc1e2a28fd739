package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

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
	// NewOptimizer builds the plan optimizer over Index (per query).
	NewOptimizer func(ix kwindex.Source) *optimizer.Optimizer
	// NewExecutor builds the executor (per query, shared by the query's
	// plans).
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
		scorer:   cfg.Scorer,
	}
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

// maxQueryKeywords is the most keywords a query may have. The CN
// generator's work grows exponentially with the keyword count: on the
// DBLP quick workload (Z = 8, two-core Xeon) the first query of 2, 3,
// 4, 5 and 6 distinct title words took 0.18, 0.8, 2.4, 8.2 and 29 s,
// and its 2^(n−1) seed keyword subsets alone took 15.8 MB at 16
// keyword positions and 301 MB at 20 (a repeated word counts once per
// position). Past 32 positions its keyword masks overflow. Sixteen
// bounds the memory a request can ask for; coldBuildLimit bounds the
// time a cold shape takes.
const maxQueryKeywords = 16

// coldBuildLimit bounds one cold shape build: the CN generator and the
// template compile poll its context. A build with a shape memo to fill
// does not run under the request that started it. A request that gives
// up on a cold miss stops waiting, but the build goes on and publishes
// its template, so a shape whose build outlasts a client's timeout
// still warms: a shard coordinator gives each shard request 5 s by
// default, under the 8.2 s of five title words above. Its retries join
// the build in flight rather than start it over. A minute lets those
// shapes warm while keeping any one build from holding a core longer.
const coldBuildLimit = time.Minute

// discoverStage tokenizes the keywords and reads each distinct
// keyword's containing list (§4) once, splitting it into the schema
// nodes whose extensions contain the keyword — the CN generator's
// input — and, per schema node, the TO set optimize reads. Out is the
// total number of keyword→schema-node pairs.
type discoverStage struct{ cfg *Config }

func (s discoverStage) Name() string { return StageDiscover }

func (s discoverStage) Run(ctx context.Context, q *Query, rep *StageReport) error {
	if len(q.Keywords) == 0 {
		return fmt.Errorf("pipeline: empty keyword query")
	}
	if len(q.Keywords) > maxQueryKeywords {
		return fmt.Errorf("pipeline: %d keywords, at most %d allowed", len(q.Keywords), maxQueryKeywords)
	}
	rep.In = int64(len(q.Keywords))
	// The effective keyword arrays stay parallel: with relaxation off
	// (or unneeded) they are exactly the request's, byte for byte.
	keywords := make([]string, 0, len(q.Keywords))
	norm := make([]string, 0, len(q.Keywords))
	nodeLists := make([][]string, 0, len(q.Keywords))
	sets := make(optimizer.TOSets)
	read := make(map[string][]string, len(q.Keywords)) // keyword → its schema nodes
	schemaNodes := func(k string) []string {
		nodes, ok := read[k]
		if !ok {
			nodes = sets.Add(k, s.cfg.Index.ContainingList(k))
			read[k] = nodes
		}
		return nodes
	}
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
		nodes := schemaNodes(n)
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
					if ns := schemaNodes(t); len(ns) > 0 {
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
	q.sets = sets
	q.Sig = ShapeSignature(s.cfg.Z, q.NodeLists) + equalitySignature(q.Norm)
	return nil
}

// generateStage fetches the query shape's compiled Template — from the
// shape memo when one is configured; a miss runs the CN generator (§4)
// and compiles the template, then publishes it. Out is the number of
// the shape's candidate networks.
type generateStage struct{ cfg *Config }

func (s generateStage) Name() string { return StageGenerate }

func (s generateStage) Run(ctx context.Context, q *Query, rep *StageReport) error {
	rep.In = int64(len(q.Keywords))
	var err error
	if q.tmpl, rep.Cached, err = s.template(ctx, q); err != nil {
		return err
	}
	if rep.Cached {
		rep.CacheHits = 1
	} else {
		rep.CacheMisses = 1
	}
	rep.Out = int64(len(q.tmpl.cns))
	return nil
}

// template returns the compiled template of the query's shape and
// whether the memo already held it. Without a memo the query builds
// its own template under ctx. A miss on a memo joins or starts the
// shape's cold build (see coldBuildLimit) and waits for it while ctx
// lasts.
func (s generateStage) template(ctx context.Context, q *Query) (*Template, bool, error) {
	memo := s.cfg.Templates
	if memo == nil {
		t, err := s.build(ctx, q.NodeLists, q.Norm)
		return t, false, err
	}
	if t, ok := memo.Template(q.Sig); ok {
		return t, true, nil
	}
	nodeLists, norm := q.NodeLists, q.Norm
	t, err := coldBuilds.do(ctx, coldKey{memo, q.Sig}, func(ctx context.Context) (*Template, error) {
		return s.build(ctx, nodeLists, norm)
	})
	return t, false, err
}

// build runs the CN generator (§4) over the shape's placeholder
// keywords and compiles the template, returning ctx's error when ctx
// ends first.
func (s generateStage) build(ctx context.Context, nodeLists [][]string, norm []string) (*Template, error) {
	phKeywords := make([]string, len(norm))
	phNodes := make(map[string][]string, len(norm))
	for i := range norm {
		phKeywords[i] = placeholder(i)
		phNodes[phKeywords[i]] = nodeLists[i]
	}
	generic, err := cn.Generate(ctx, cn.Input{
		Schema:        s.cfg.Schema,
		Keywords:      phKeywords,
		SchemaNodesOf: phNodes,
		MaxSize:       s.cfg.Z,
	})
	if err != nil {
		return nil, err
	}
	return s.cfg.compile(ctx, generic, norm)
}

// coldKey names one shape of one memo: signatures are only unique
// within a memo, which serves one schema.
type coldKey struct {
	memo TemplateCache
	sig  string
}

// coldBuild is one cold shape build in flight.
type coldBuild struct {
	done chan struct{} // closed once t and err are set
	t    *Template
	err  error
}

// buildGroup runs cold shape builds detached from the requests that
// wait on them: at most one per coldKey, and at most one per CPU at a
// time, so requests that abandon their builds cannot stack up work
// past the cores. An entry lives only while its build runs. Unlike
// qserve's flight group, which cancels a query once its last waiter
// leaves, a build is never cancelled: finishing it is what warms the
// shape.
type buildGroup struct {
	mu    sync.Mutex
	m     map[coldKey]*coldBuild // guarded by mu
	slots chan struct{}          // one token per build running
}

var coldBuilds = &buildGroup{
	m:     make(map[coldKey]*coldBuild),
	slots: make(chan struct{}, runtime.GOMAXPROCS(0)),
}

// do waits for key's template: it joins the build in flight, or takes
// a build slot and starts one. The build runs on its own context,
// bounded by coldBuildLimit, and publishes into key.memo when it
// succeeds. A caller whose ctx ends first, waiting for a slot or for
// the build, gets ctx's error; the build it started goes on.
func (g *buildGroup) do(ctx context.Context, key coldKey, build func(context.Context) (*Template, error)) (*Template, error) {
	g.mu.Lock()
	b := g.m[key]
	g.mu.Unlock()
	if b == nil {
		select {
		case g.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		// Another request may have started the build, or finished it,
		// while this one waited for the slot. run publishes before it
		// deletes its entry, so under mu one of the two shows.
		g.mu.Lock()
		b = g.m[key]
		t, built := key.memo.Template(key.sig)
		if b == nil && !built {
			b = &coldBuild{done: make(chan struct{})}
			g.m[key] = b
			go g.run(key, b, build)
		} else {
			<-g.slots
		}
		g.mu.Unlock()
		if b == nil {
			return t, nil
		}
	}
	select {
	case <-b.done:
		return b.t, b.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// run builds b under coldBuildLimit, publishes it, and frees its entry
// and its slot.
func (g *buildGroup) run(key coldKey, b *coldBuild, build func(context.Context) (*Template, error)) {
	ctx, cancel := context.WithTimeout(context.Background(), coldBuildLimit)
	b.t, b.err = build(ctx)
	cancel()
	if b.err == nil {
		key.memo.PutTemplate(key.sig, b.t)
	} else if errors.Is(b.err, context.DeadlineExceeded) {
		b.err = fmt.Errorf("pipeline: keyword shape not built within %v", coldBuildLimit)
	}
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	<-g.slots
	close(b.done)
}

// reduceStage instantiates the template's CTSSNs — each candidate
// network reduced, the lowest-score CN kept per distinct shape, sorted
// ascending by score, the order the execute stage's smallest-first
// scheduling relies on — with the query's keywords. In is the number
// of the shape's candidate networks.
type reduceStage struct{ cfg *Config }

func (s reduceStage) Name() string { return StageReduce }

func (s reduceStage) Run(ctx context.Context, q *Query, rep *StageReport) error {
	if q.tmpl == nil {
		return fmt.Errorf("pipeline: reduce needs the template the generate stage sets")
	}
	rep.In = int64(len(q.tmpl.cns))
	if n := len(q.tmpl.nets); n > 0 {
		q.Nets = make([]*cn.TSSNetwork, n)
	}
	for i := range q.Nets {
		q.Nets[i] = q.tmpl.network(i, q.Norm)
	}
	rep.Out = int64(len(q.Nets))
	return nil
}

// optimizeStage turns each CTSSN into an execution plan (§5): the
// fragment cover and step orders come compiled with the template, and
// the TO sets with discover's TOSets; what is left per query is
// intersecting the sets of multi-keyword occurrences, choosing every
// plan's seed from its filter sizes and binding that seed's steps.
type optimizeStage struct{ cfg *Config }

func (s optimizeStage) Name() string { return StageOptimize }

func (s optimizeStage) Run(ctx context.Context, q *Query, rep *StageReport) error {
	rep.In = int64(len(q.Nets))
	opt := s.cfg.NewOptimizer(s.cfg.Index)
	plans := make([]*optimizer.Plan, len(q.Nets))
	for i, tn := range q.Nets {
		if q.Own != nil && !q.Own(i) {
			continue
		}
		nt := &q.tmpl.nets[i]
		err := nt.err
		var p *optimizer.Plan
		if err == nil {
			p, err = opt.Bind(nt.shape, tn, q.sets)
		}
		if err != nil {
			return fmt.Errorf("pipeline: planning %s: %w", tn, err)
		}
		plans[i] = p
		rep.Out++
	}
	q.Plans = plans
	return nil
}

// executeStage evaluates the plans (§6) through one executor, in plan
// order: the first Query.Limit results with early termination, or all
// of them.
type executeStage struct{ cfg *Config }

func (s executeStage) Name() string { return StageExecute }

func (s executeStage) Run(ctx context.Context, q *Query, rep *StageReport) error {
	rep.In = int64(len(q.Plans))
	if q.Mode != ModeTopK && q.Mode != ModeAll {
		return fmt.Errorf("pipeline: mode %v does not execute", q.Mode)
	}
	rep.Note = q.Mode.String()
	k := q.Limit()
	if q.Mode == ModeTopK && k == 0 {
		rep.Note = "topk(full)"
	}
	out, err := exec.RunPlans(ctx, s.cfg.NewExecutor(), q.Plans, k, q.Strategy)
	if err != nil {
		return err
	}
	q.Results = out
	rep.Out = int64(len(out))
	return nil
}

// rankStage is the single place results are ordered and filtered:
// they are sorted into the canonical (Score, Ord) order, StrictMinimal
// drops results violating §3.1's strict MTNN minimality, and a
// non-default scorer re-ranks what is left and truncates it to K.
type rankStage struct{ cfg *Config }

func (s rankStage) Name() string { return StageRank }

func (s rankStage) Run(ctx context.Context, q *Query, rep *StageReport) error {
	rep.In = int64(len(q.Results))
	// (Score, Ord) is the order every ranked surface agrees on. The
	// execute stage (plans run in ascending score order) and the
	// coordinator's merge both deliver it already, so this sort only
	// names it; scorers receive their input in it, the tie-break they
	// contract to preserve.
	slices.SortFunc(q.Results, exec.OrdCompare)
	if s.cfg.StrictMinimal {
		tos := q.KeywordTOs()
		out := q.Results[:0]
		for _, r := range q.Results {
			if exec.IsMinimal(tos, r) {
				out = append(out, r)
			}
		}
		q.Results = out
	}
	if sc := q.Scorer; !rank.IsDefault(sc) {
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
