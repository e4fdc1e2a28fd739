package shard

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/kwindex"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/qserve"
	"repro/internal/rank"
)

// ErrNoQuorum is returned when fewer than a quorum of shard groups can
// answer a query's lookup phase (or no group is left to execute a
// cover). A group counts as answering while at least one of its
// replicas does, so with replication ErrNoQuorum means whole groups —
// every replica of a partition — are down, not single processes. The
// web layer maps it to 503 + Retry-After: a mostly-empty answer must
// not be served as a result set, loudly annotated or not.
var ErrNoQuorum = errors.New("shard: quorum of shards unavailable")

// CoordinatorOptions configure a Coordinator. The zero value selects
// the defaults.
type CoordinatorOptions struct {
	// Quorum is the minimum number of shards that must answer the
	// lookup phase (default: majority, n/2+1). Below it queries fail
	// with ErrNoQuorum instead of degrading.
	Quorum int
	// RequestTimeout bounds each shard request (default 5s).
	RequestTimeout time.Duration
	// Retry is the per-request retry policy for transient failures
	// (default: 2 attempts, 10ms base backoff).
	Retry fault.RetryPolicy
	// BreakerThreshold consecutive failures open a shard's circuit
	// breaker (default 3); BreakerWindow is how long it fast-fails
	// before admitting a probe (default 2s).
	BreakerThreshold int
	BreakerWindow    time.Duration
	// HealthTTL caches ShardStates probes for this long (default 1s;
	// negative disables caching). The serving layer consults health on
	// every query, which must not cost a full shard fan-out each time.
	HealthTTL time.Duration
	// Manifest, when non-nil, lets Validate check each shard serves the
	// split it records (CRC + scheme + count).
	Manifest *Manifest
	// HTTPClient overrides the transport (tests use the httptest
	// server's client). Default: a dedicated pooled client.
	HTTPClient *http.Client
	// Logf receives operational messages (default log.Printf).
	Logf func(format string, args ...any)

	// HedgeDisabled turns off hedged requests. By default, groups with
	// more than one replica hedge: once a request to the healthiest
	// replica runs past that replica's observed p95 latency, the same
	// idempotent request fires at the next replica and the first success
	// wins (the loser is cancelled). Replicas serve identical partition
	// data, so hedging never changes an answer, only its tail latency.
	HedgeDisabled bool
	// HedgeMinDelay/HedgeMaxDelay clamp the latency-derived hedge delay
	// (defaults 1ms / 100ms) so a cold or noisy histogram cannot hedge
	// instantly or wait out the whole request timeout.
	HedgeMinDelay time.Duration
	HedgeMaxDelay time.Duration
	// HedgeBudgetPct caps fired hedges at this percentage of hedgeable
	// requests, coordinator-wide (default 10) — a slow cluster must not
	// double its own load.
	HedgeBudgetPct int
	// HedgeMinSamples is how many latency observations a replica needs
	// before its p95 is trusted to derive a hedge delay (default 16).
	HedgeMinSamples int
}

func (o *CoordinatorOptions) defaults(n int) {
	if o.Quorum <= 0 {
		o.Quorum = n/2 + 1
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.Retry.Attempts == 0 {
		o.Retry = fault.RetryPolicy{Attempts: 2, Base: 10 * time.Millisecond, Max: 250 * time.Millisecond, Jitter: 0.5}
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerWindow <= 0 {
		o.BreakerWindow = 2 * time.Second
	}
	if o.HealthTTL == 0 {
		o.HealthTTL = time.Second
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	if o.HedgeMinDelay <= 0 {
		o.HedgeMinDelay = time.Millisecond
	}
	if o.HedgeMaxDelay <= 0 {
		o.HedgeMaxDelay = 100 * time.Millisecond
	}
	if o.HedgeBudgetPct <= 0 {
		o.HedgeBudgetPct = 10
	}
	if o.HedgeMinSamples <= 0 {
		o.HedgeMinSamples = 16
	}
}

// Coordinator scatter-gathers keyword queries across N shard servers.
// It implements qserve.Engine, so the full serving layer — result
// cache, singleflight, admission control, breaker, health — fronts it
// unchanged; it also implements the health interfaces (IndexHealthState
// with the quorum rule, ShardStates for per-shard reporting).
type Coordinator struct {
	sys    *core.System
	groups []*replicaGroup
	hedge  *hedgeControl
	opts   CoordinatorOptions

	lookupLat  obs.Histogram // phase 1 wall time per query
	executeLat obs.Histogram // phase 2 wall time per query
	mergeLat   obs.Histogram // merge wall time per query

	queries       atomic.Int64
	degraded      atomic.Int64
	reassignments atomic.Int64
	crcMismatches atomic.Int64

	stMu    sync.Mutex
	stCache []qserve.ShardState // guarded by stMu — last probe result
	stAt    time.Time           // guarded by stMu — when it was taken
}

var (
	_ qserve.Engine       = (*Coordinator)(nil)
	_ qserve.ScoredEngine = (*Coordinator)(nil)
)

// NewCoordinator wires a coordinator to one shard server per partition
// (base URLs, index = shard id) — the single-replica special case of
// NewCoordinatorGroups. sys supplies the replicated structural data
// used to derive networks and plans; its own Index field is never
// consulted for answers.
func NewCoordinator(sys *core.System, addrs []string, opts CoordinatorOptions) *Coordinator {
	groups := make([][]string, len(addrs))
	for i, a := range addrs {
		groups[i] = []string{a}
	}
	return NewCoordinatorGroups(sys, groups, opts)
}

// NewCoordinatorGroups wires a coordinator to a replica topology: one
// address list per shard, index = shard id. Every replica of a group
// must serve a byte-identical copy of that shard's partition (Validate
// cross-checks the partition CRCs); each lookup/execute routes to the
// group's healthiest replica with failover to siblings, so a partition
// is unavailable only when its whole group is.
func NewCoordinatorGroups(sys *core.System, groups [][]string, opts CoordinatorOptions) *Coordinator {
	opts.defaults(len(groups))
	c := &Coordinator{sys: sys, opts: opts}
	c.hedge = &hedgeControl{
		disabled:   opts.HedgeDisabled,
		minDelay:   opts.HedgeMinDelay,
		maxDelay:   opts.HedgeMaxDelay,
		budgetPct:  int64(opts.HedgeBudgetPct),
		minSamples: int64(opts.HedgeMinSamples),
	}
	for i, addrs := range groups {
		g := &replicaGroup{shard: i, hedge: c.hedge}
		for ri, a := range addrs {
			label := fmt.Sprintf("shard %d at %s", i, a)
			if len(addrs) > 1 {
				label = fmt.Sprintf("shard %d replica %d at %s", i, ri, a)
			}
			g.replicas = append(g.replicas, &shardClient{
				id:        i,
				replica:   ri,
				label:     label,
				base:      a,
				hc:        opts.HTTPClient,
				timeout:   opts.RequestTimeout,
				threshold: opts.BreakerThreshold,
				window:    opts.BreakerWindow,
			})
		}
		c.groups = append(c.groups, g)
	}
	return c
}

// N returns the shard (group) count.
func (c *Coordinator) N() int { return len(c.groups) }

// Replicas returns the total replica count across all groups.
func (c *Coordinator) Replicas() int {
	n := 0
	for _, g := range c.groups {
		n += len(g.replicas)
	}
	return n
}

func (c *Coordinator) quorum() int { return c.opts.Quorum }

// Validate probes every replica of every group and checks identity:
// shard id, count, hash scheme, and the partition CRC — against the
// manifest when one was provided, and always across the group's own
// replicas, since hedging and failover are only byte-preserving when
// every replica serves the identical partition. A coordinator serving
// in front of mismatched shards would silently misroute, so deployments
// call this before taking traffic.
func (c *Coordinator) Validate(ctx context.Context) error {
	n := len(c.groups)
	for i, g := range c.groups {
		var anchor *StatsResponse // the group's first replica, for the cross-check
		for _, cl := range g.replicas {
			var st StatsResponse
			if err := cl.probe(ctx, "/shard/stats", struct{}{}, &st, c.opts.Retry); err != nil {
				return fmt.Errorf("shard: validating shard %d: %w", i, err)
			}
			if st.Shard != i || st.Of != n {
				return fmt.Errorf("shard: %s identifies as shard %d/%d, expected %d/%d", cl.base, st.Shard, st.Of, i, n)
			}
			if st.Scheme != HashScheme {
				return fmt.Errorf("shard: %s uses hash scheme %q, coordinator uses %q", cl.base, st.Scheme, HashScheme)
			}
			if m := c.opts.Manifest; m != nil && st.CRC != m.Shards[i].CRC {
				return fmt.Errorf("shard: %s serves partition CRC %08x, manifest records %08x — wrong split?", cl.base, st.CRC, m.Shards[i].CRC)
			}
			if anchor == nil {
				st := st
				anchor = &st
			} else if st.CRC != anchor.CRC || st.Postings != anchor.Postings || st.Keywords != anchor.Keywords {
				// A replica serving a CRC (or, for in-memory partitions
				// with no file CRC, index totals) its sibling does not is
				// not a copy of the same split — failover and hedging
				// would change answers, so refuse.
				return fmt.Errorf("shard: %s serves CRC %08x / %d postings / %d keywords, its sibling %s serves %08x / %d / %d — replicas of shard %d are not copies of one split",
					cl.base, st.CRC, st.Postings, st.Keywords, g.replicas[0].base, anchor.CRC, anchor.Postings, anchor.Keywords, i)
			}
		}
	}
	return nil
}

// QueryContext implements qserve.Engine: the scatter-gather top-k query.
func (c *Coordinator) QueryContext(ctx context.Context, keywords []string, k int) ([]exec.Result, error) {
	if k <= 0 {
		return nil, ctx.Err()
	}
	rs, _, err := c.query(ctx, keywords, k, exec.NestedLoop, nil, nil)
	return rs, err
}

// QueryAllStrategyContext implements qserve.Engine: the scatter-gather
// full-result query.
func (c *Coordinator) QueryAllStrategyContext(ctx context.Context, keywords []string, strat exec.Strategy) ([]exec.Result, error) {
	rs, _, err := c.query(ctx, keywords, 0, strat, nil, nil)
	return rs, err
}

// QueryScoredContext implements qserve.ScoredEngine: the scatter-gather
// top-k query ranked by the named scorer, with the relaxation record.
// The default scorer keeps the per-shard top-k caps and the early-
// terminating canonical merge byte-identical to QueryContext; any other
// scorer fetches full streams (a shard-side cap could prune a result
// the scorer would promote) and re-ranks the merged list exactly like a
// single node would.
func (c *Coordinator) QueryScoredContext(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *pipeline.Relaxation, error) {
	name := scorer
	if name == "" {
		name = c.sys.Opts.Scorer
	}
	sc, err := rank.New(name)
	if err != nil {
		return nil, nil, err
	}
	if k <= 0 {
		return nil, nil, ctx.Err()
	}
	return c.query(ctx, keywords, k, exec.NestedLoop, sc, nil)
}

// QueryTraced is QueryContext with a per-query obs.Trace covering the
// coordinator phases (scatter-lookup, the local pipeline's derivation
// stages, scatter-execute, merge).
func (c *Coordinator) QueryTraced(ctx context.Context, keywords []string, k int) (*obs.Trace, []exec.Result, error) {
	tr := obs.NewTrace()
	rs, _, err := c.query(ctx, keywords, k, exec.NestedLoop, nil, tr)
	return tr, rs, err
}

// query is the two-phase scatter-gather path; see the package comment
// for the protocol and its equivalence argument. A nil (or default)
// scorer is the byte-identical canonical path; a non-default scorer
// turns off the per-shard and merge top-k cutoffs and re-ranks the full
// merged list. The relaxation record comes from the coordinator's local
// derivation; shards relax identically against the same merged lists
// (the CRC cross-check would catch any divergence).
func (c *Coordinator) query(ctx context.Context, keywords []string, k int, strat exec.Strategy, sc rank.Scorer, trace *obs.Trace) ([]exec.Result, *pipeline.Relaxation, error) {
	c.queries.Add(1)
	n := len(c.groups)

	// Normalize once; wire lists are keyed by the normalized form.
	norms := make([]string, 0, len(keywords))
	seenNorm := make(map[string]bool)
	for _, kw := range keywords {
		nk := NormKeyword(kw)
		if nk == "" {
			return nil, nil, fmt.Errorf("shard: keyword %q has no tokens", kw)
		}
		if !seenNorm[nk] {
			seenNorm[nk] = true
			norms = append(norms, nk)
		}
	}
	if c.sys.Opts.Relax {
		// Relaxation may substitute a no-match phrase by one of its
		// tokens, so the merged query-scoped source must carry each
		// token's list too — for the coordinator's own derivation and for
		// every shard's identical one.
		for _, kw := range keywords {
			for _, t := range kwindex.Tokenize(kw) {
				if !seenNorm[t] {
					seenNorm[t] = true
					norms = append(norms, t)
				}
			}
		}
	}

	// Phase 1: scatter the lookups; the union of the live partitions'
	// lists is the (possibly partial) global containing list.
	start := time.Now()
	lookups := make([]LookupResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range c.groups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.groups[i].do(ctx, "/shard/lookup", LookupRequest{Keywords: norms}, &lookups[i], c.opts.Retry)
			if errs[i] == nil && (lookups[i].Shard != i || lookups[i].Of != n) {
				errs[i] = fmt.Errorf("%s identifies as %d/%d", c.groups[i].name(n), lookups[i].Shard, lookups[i].Of)
			}
		}(i)
	}
	wg.Wait()
	c.lookupLat.Observe(time.Since(start))
	trace.Add(obs.Span{Stage: "scatter-lookup", Start: start, Duration: time.Since(start), In: int64(n), Out: int64(len(norms))})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	alive := make([]bool, n)
	var dead []int
	live := 0
	for i := range c.groups {
		if errs[i] == nil {
			alive[i] = true
			live++
		} else {
			dead = append(dead, i)
		}
	}
	if live < c.quorum() {
		return nil, nil, fmt.Errorf("%w: %d of %d shards answered (quorum %d); first failure: %v", ErrNoQuorum, live, n, c.quorum(), errs[dead[0]])
	}
	if len(dead) > 0 {
		// Loud, never silent: the answer excludes every result tree that
		// contains a TO of a dead partition. A group only lands here when
		// every one of its replicas failed — single-replica faults are
		// absorbed by the group's failover. The serving layer attaches
		// this note to the response and refuses to cache it.
		var names []string
		for _, i := range dead {
			names = append(names, c.groups[i].name(n))
			c.opts.Logf("shard: lookup phase lost %s: %v", names[len(names)-1], errs[i])
		}
		c.degraded.Add(1)
		qserve.NoteDegradation(ctx, qserve.Degradation{
			Shards: names,
			Detail: fmt.Sprintf("answers computed without %d of %d index partitions: results containing their target objects are missing", len(dead), n),
		})
	}

	// Merge the partition slices into the query-scoped global source,
	// decoding each shard's response once.
	decoded := make([]map[string][]kwindex.Posting, n)
	for i := range c.groups {
		if !alive[i] {
			continue
		}
		lists, ok := DecodeLists(lookups[i].Lists)
		if !ok {
			return nil, nil, fmt.Errorf("shard: shard %d returned malformed postings", i)
		}
		decoded[i] = lists
	}
	merged := make(map[string][]kwindex.Posting, len(norms))
	for _, nk := range norms {
		var parts [][]kwindex.Posting
		for i := range c.groups {
			if ps, ok := decoded[i][nk]; ok {
				parts = append(parts, ps)
			}
		}
		merged[nk] = MergePostings(parts)
	}
	globalPostings, globalKeywords := 0, 0
	for i := range c.groups {
		if alive[i] {
			globalPostings += lookups[i].Postings
			if lookups[i].Keywords > globalKeywords {
				globalKeywords = lookups[i].Keywords
			}
		}
	}
	src := NewQuerySource(merged, globalPostings, globalKeywords)

	// Derive the network list locally — the same derivation every shard
	// performs — to attach results to networks and cross-check CRCs.
	q := &pipeline.Query{Keywords: keywords, Mode: pipeline.ModeNetworks, Trace: trace}
	if err := c.sys.PipelineWith(src).Run(ctx, q); err != nil {
		return nil, nil, err
	}
	if len(q.Nets) == 0 {
		// Nothing to execute — relaxation dropped every keyword, or the
		// shape admits no candidate network. Every shard would derive
		// the same empty list (CRC of nothing), so skip the scatter.
		return nil, q.Relaxation, nil
	}
	wantCRC := q.NetsCRC()

	// A non-default scorer needs the complete result set: per-shard
	// top-k caps and the merge cutoff are only sound for the canonical
	// order it may depart from.
	fetchK := k
	if !rank.IsDefault(sc) {
		fetchK = 0
	}

	// Phase 2: scatter execution, partitioned by plan: class p is the
	// plans whose index is ≡ p (mod n), and every class that holds a
	// plan is executed by exactly one shard — its own while that shard
	// lives. Dead shards' classes are covered by survivors: execution
	// needs only this request (it carries the full merged postings) and
	// the replicated structural data, so reassignment keeps the answer
	// exact. A shard whose cover stays empty — more shards than plans —
	// is not called.
	startExec := time.Now()
	covers := make([][]int, n)
	var pending []int // classes needing a (re)assignment
	for p := 0; p < n && p < len(q.Nets); p++ {
		if alive[p] {
			covers[p] = append(covers[p], p)
		} else {
			pending = append(pending, p)
		}
	}
	wireLists := EncodeLists(merged)
	streams := make([][]exec.Result, 0, n)
	// Bounded reassignment rounds: each round either succeeds or marks
	// at least one more shard dead, so n rounds always suffice.
	for round := 0; round < n; round++ {
		// Distribute pending classes round-robin over live shards.
		if len(pending) > 0 {
			sort.Ints(pending)
			var hosts []int
			for i := range c.groups {
				if alive[i] {
					hosts = append(hosts, i)
				}
			}
			if len(hosts) == 0 {
				return nil, nil, fmt.Errorf("%w: no shard left to execute plan classes %v", ErrNoQuorum, pending)
			}
			for j, p := range pending {
				covers[hosts[j%len(hosts)]] = append(covers[hosts[j%len(hosts)]], p)
			}
			if round > 0 {
				c.reassignments.Add(int64(len(pending)))
				c.opts.Logf("shard: reassigned plan classes %v to surviving shards", pending)
			}
			pending = nil
		}
		// Fan this round's requests to shards with uncollected covers.
		type execOut struct {
			resp ExecResponse
			err  error
		}
		// Dense per-shard slots, not a map: the gather below walks shards
		// in index order so lost-shard logs, the pending list, and the
		// stream order feeding the merge are identical across runs.
		outs := make([]*execOut, n)
		var ewg sync.WaitGroup
		for i := range c.groups {
			if !alive[i] || len(covers[i]) == 0 {
				continue
			}
			ewg.Add(1)
			go func(i int) {
				defer ewg.Done()
				parts := covers[i]
				out := &execOut{}
				out.err = c.groups[i].do(ctx, "/shard/execute", ExecRequest{
					Keywords:       keywords,
					K:              fetchK,
					Strategy:       uint8(strat),
					N:              n,
					Parts:          parts,
					Lists:          wireLists,
					GlobalPostings: globalPostings,
					GlobalKeywords: globalKeywords,
				}, &out.resp, c.opts.Retry)
				if out.err == nil && out.resp.NetsCRC != wantCRC {
					c.crcMismatches.Add(1)
					out.err = fmt.Errorf("shard %d derived networks CRC %08x, coordinator %08x — mismatched structural data?", i, out.resp.NetsCRC, wantCRC)
				}
				outs[i] = out
			}(i)
		}
		ewg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		for i, out := range outs {
			if out == nil {
				continue // shard had no cover this round
			}
			if out.err != nil {
				c.opts.Logf("shard: execute phase lost shard %d: %v", i, out.err)
				alive[i] = false
				pending = append(pending, covers[i]...)
				covers[i] = nil
				continue
			}
			stream := make([]exec.Result, 0, len(out.resp.Results))
			for _, wr := range out.resp.Results {
				pi := int(wr.Ord >> 32)
				if pi < 0 || pi >= len(q.Nets) {
					return nil, nil, fmt.Errorf("shard: shard %d returned result for plan %d of %d", i, pi, len(q.Nets))
				}
				stream = append(stream, exec.Result{Net: q.Nets[pi], Bind: wr.Bind, Score: wr.Score, Ord: wr.Ord})
			}
			streams = append(streams, stream)
			covers[i] = nil
		}
		if len(pending) == 0 {
			break
		}
	}
	if len(pending) > 0 {
		return nil, nil, fmt.Errorf("%w: plan classes %v still unexecuted after reassignment", ErrNoQuorum, pending)
	}
	c.executeLat.Observe(time.Since(startExec))
	trace.Add(obs.Span{Stage: "scatter-execute", Start: startExec, Duration: time.Since(startExec), In: int64(n), Out: int64(len(streams))})

	// Merge the per-shard streams on the canonical order with top-k
	// cutoff, then apply the single-node rank stage's minimality filter.
	startMerge := time.Now()
	out := MergeTopK(streams, fetchK)
	if c.sys.Opts.StrictMinimal {
		kept := out[:0]
		for _, r := range out {
			if exec.IsMinimal(src, r) {
				kept = append(kept, r)
			}
		}
		out = kept
	}
	if !rank.IsDefault(sc) {
		// Re-rank exactly as the single-node rank stage would: the
		// query-scoped source carries the globally merged postings, so
		// content-weighted costs match a single node's byte for byte.
		out = sc.Rank(rank.Context{TSS: c.sys.TSS, Index: src, Keywords: q.Norm}, out, k)
	}
	c.mergeLat.Observe(time.Since(startMerge))
	trace.Add(obs.Span{Stage: "merge", Start: startMerge, Duration: time.Since(startMerge), In: int64(len(streams)), Out: int64(len(out))})
	return out, q.Relaxation, nil
}

// MergeTopK merges per-shard result streams — each ascending in the
// canonical (Score, Ord) order — into the globally first k results
// (k ≤ 0 means all), with early termination at the cutoff. Duplicate
// results (an overlapping cover after a mid-query reassignment race)
// share an Ord, order adjacently, and are dropped defensively; disjoint
// covers produce none.
func MergeTopK(streams [][]exec.Result, k int) []exec.Result {
	idx := make([]int, len(streams))
	var out []exec.Result
	for {
		best := -1
		for s := range streams {
			if idx[s] >= len(streams[s]) {
				continue
			}
			if best < 0 || exec.OrdLess(streams[s][idx[s]], streams[best][idx[best]]) {
				best = s
			}
		}
		if best < 0 {
			return out
		}
		r := streams[best][idx[best]]
		idx[best]++
		if len(out) > 0 && out[len(out)-1].Ord == r.Ord {
			continue
		}
		out = append(out, r)
		if k > 0 && len(out) >= k {
			return out
		}
	}
}

// ShardStates probes every replica of every group for /healthz and
// /debug surfaces: a replica whose breaker is open is reported
// unavailable without a probe (that is the breaker's point); the rest
// answer a short stats request. Each group folds to one ShardState —
// as available as its healthiest replica, since any live replica can
// answer for the partition — with the per-replica breakdown (address,
// breaker state, last error) alongside so an operator can see which
// replica of a group is sick. Probes are cached for HealthTTL so the
// serving layer's per-query health check does not cost a fan-out each
// time.
func (c *Coordinator) ShardStates() []qserve.ShardState {
	if c.opts.HealthTTL > 0 {
		c.stMu.Lock()
		if c.stCache != nil && time.Since(c.stAt) < c.opts.HealthTTL {
			cached := append([]qserve.ShardState(nil), c.stCache...)
			c.stMu.Unlock()
			return cached
		}
		c.stMu.Unlock()
	}
	states := make([]qserve.ShardState, len(c.groups))
	var wg sync.WaitGroup
	for i, g := range c.groups {
		wg.Add(1)
		go func(i int, g *replicaGroup) {
			defer wg.Done()
			states[i] = c.groupState(i, g)
		}(i, g)
	}
	wg.Wait()
	if c.opts.HealthTTL > 0 {
		c.stMu.Lock()
		c.stCache = append([]qserve.ShardState(nil), states...)
		c.stAt = time.Now()
		c.stMu.Unlock()
	}
	return states
}

// healthRank orders index health states best-first for the group fold.
func healthRank(state string) int {
	switch state {
	case string(core.IndexOK):
		return 0
	case string(core.IndexDegraded):
		return 1
	default:
		return 2
	}
}

// groupState probes one group's replicas concurrently and folds them
// into the group's ShardState.
func (c *Coordinator) groupState(i int, g *replicaGroup) qserve.ShardState {
	reps := make([]qserve.ReplicaState, len(g.replicas))
	var wg sync.WaitGroup
	for ri, cl := range g.replicas {
		wg.Add(1)
		go func(ri int, cl *shardClient) {
			defer wg.Done()
			rs := qserve.ReplicaState{
				Replica:   ri,
				Addr:      cl.base,
				Breaker:   cl.breakerLabel(),
				LastErr:   cl.lastError(),
				P50Millis: cl.lat.Quantile(0.50).Milliseconds(),
				P99Millis: cl.lat.Quantile(0.99).Milliseconds(),
			}
			if cl.broken() {
				rs.State, rs.Detail = string(core.IndexUnavailable), "circuit breaker open"
				reps[ri] = rs
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), c.opts.RequestTimeout)
			defer cancel()
			var sr StatsResponse
			if err := cl.probe(ctx, "/shard/stats", struct{}{}, &sr, fault.RetryPolicy{Attempts: 1}); err != nil {
				rs.State, rs.Detail = string(core.IndexUnavailable), err.Error()
			} else if sr.Shard != i || sr.Scheme != HashScheme {
				rs.State = string(core.IndexUnavailable)
				rs.Detail = fmt.Sprintf("identifies as shard %d scheme %q", sr.Shard, sr.Scheme)
			} else {
				rs.State, rs.Detail = sr.IndexState, sr.IndexErr
			}
			reps[ri] = rs
		}(ri, cl)
	}
	wg.Wait()
	best := 0
	for ri := 1; ri < len(reps); ri++ {
		if healthRank(reps[ri].State) < healthRank(reps[best].State) {
			best = ri
		}
	}
	return qserve.ShardState{
		ID:        i,
		Addr:      reps[best].Addr,
		State:     reps[best].State,
		Detail:    reps[best].Detail,
		P50Millis: reps[best].P50Millis,
		P99Millis: reps[best].P99Millis,
		Replicas:  reps,
	}
}

// IndexHealthState implements the serving layer's health probe with the
// quorum rule: unavailable only when fewer than a quorum of shard
// groups have a live replica; degraded while any replica is down or
// degraded — a group on its last replica still answers exactly, but an
// operator should look; ok otherwise.
func (c *Coordinator) IndexHealthState() (core.IndexHealth, error) {
	states := c.ShardStates()
	live, notOK := 0, 0
	var firstDetail string
	for _, st := range states {
		if st.State != string(core.IndexUnavailable) {
			live++
		}
		sick := st.State != string(core.IndexOK)
		detail := fmt.Sprintf("shard %d at %s: %s (%s)", st.ID, st.Addr, st.State, st.Detail)
		for _, r := range st.Replicas {
			if r.State != string(core.IndexOK) && !sick {
				sick = true
				detail = fmt.Sprintf("shard %d replica %d at %s: %s (%s)", st.ID, r.Replica, r.Addr, r.State, r.Detail)
			}
		}
		if sick {
			notOK++
			if firstDetail == "" {
				firstDetail = detail
			}
		}
	}
	if live < c.quorum() {
		return core.IndexUnavailable, fmt.Errorf("%d of %d shards reachable, quorum is %d; %s", live, len(states), c.quorum(), firstDetail)
	}
	if notOK > 0 {
		return core.IndexDegraded, fmt.Errorf("%d of %d shards not ok; %s", notOK, len(states), firstDetail)
	}
	return core.IndexOK, nil
}

// CoordSnapshot is the coordinator's Stats view, shaped for JSON.
type CoordSnapshot struct {
	N             int   `json:"n"`
	Replicas      int   `json:"replicas"`
	Quorum        int   `json:"quorum"`
	Queries       int64 `json:"queries"`
	Degraded      int64 `json:"degraded"`
	Reassignments int64 `json:"reassignments"`
	CRCMismatches int64 `json:"crc_mismatches"`
	// Failovers counts group requests a non-preferred replica saved
	// after its sibling failed; Hedges/HedgeWins count hedged requests
	// fired and those the hedge answered first.
	Failovers  int64               `json:"failovers"`
	Hedges     int64               `json:"hedges"`
	HedgeWins  int64               `json:"hedge_wins"`
	LookupP50  time.Duration       `json:"lookup_p50_ns"`
	ExecuteP50 time.Duration       `json:"execute_p50_ns"`
	MergeP50   time.Duration       `json:"merge_p50_ns"`
	Shards     []qserve.ShardState `json:"shards"`
}

// Stats snapshots the coordinator counters, phase latencies, failover
// and hedging figures, and the per-shard (per-replica) states.
func (c *Coordinator) Stats() CoordSnapshot {
	var failovers int64
	for _, g := range c.groups {
		failovers += g.failovers.Load()
	}
	snap := CoordSnapshot{
		N:             len(c.groups),
		Replicas:      c.Replicas(),
		Quorum:        c.quorum(),
		Queries:       c.queries.Load(),
		Degraded:      c.degraded.Load(),
		Reassignments: c.reassignments.Load(),
		CRCMismatches: c.crcMismatches.Load(),
		Failovers:     failovers,
		Hedges:        c.hedge.fired.Load(),
		HedgeWins:     c.hedge.wins.Load(),
		LookupP50:     c.lookupLat.Quantile(0.50),
		ExecuteP50:    c.executeLat.Quantile(0.50),
		MergeP50:      c.mergeLat.Quantile(0.50),
		Shards:        c.ShardStates(),
	}
	sort.Slice(snap.Shards, func(i, j int) bool { return snap.Shards[i].ID < snap.Shards[j].ID })
	return snap
}
