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
	"repro/internal/pipeline"
	"repro/internal/qserve"
)

// ErrNoQuorum is returned when no shard group is left to execute a
// query's plan classes: every replica of every group that was asked has
// failed. A group counts as live while at least one of its replicas
// answers, and any live group can execute any class, so short of that
// every loss is an exact reassignment. The web layer maps it to 503 +
// Retry-After.
var ErrNoQuorum = errors.New("shard: no live shard group left")

// CoordinatorOptions configure a Coordinator. The zero value selects
// the defaults.
type CoordinatorOptions struct {
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
	// split it records (CRC + scheme + count) and that the split was cut
	// from the coordinator's own index (posting totals).
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

func (o *CoordinatorOptions) defaults() {
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
// folding its own index with the shard groups, ShardStates for
// per-shard reporting).
type Coordinator struct {
	sys    *core.System
	groups []*replicaGroup
	hedge  *hedgeControl
	opts   CoordinatorOptions

	queries       atomic.Int64
	reassignments atomic.Int64
	crcMismatches atomic.Int64

	stMu    sync.Mutex
	stCache []qserve.ShardState // guarded by stMu — last probe result
	stAt    time.Time           // guarded by stMu — when it was taken
}

var _ qserve.Engine = (*Coordinator)(nil)

// NewCoordinatorGroups wires a coordinator to a replica topology: one
// address list per shard, index = shard id. sys is the whole system the
// split was cut from: its Index supplies every query's containing lists
// (Validate checks it against the manifest) and its structural data
// derives networks and plans exactly as each shard does. Every replica
// of a group must serve a byte-identical copy of that shard's partition
// (Validate cross-checks the partition CRCs); each execute request
// routes to the group's healthiest replica with failover to siblings.
func NewCoordinatorGroups(sys *core.System, groups [][]string, opts CoordinatorOptions) *Coordinator {
	opts.defaults()
	c := &Coordinator{sys: sys, opts: opts}
	c.hedge = &hedgeControl{
		disabled:   opts.HedgeDisabled,
		minDelay:   opts.HedgeMinDelay,
		maxDelay:   opts.HedgeMaxDelay,
		budgetPct:  int64(opts.HedgeBudgetPct),
		minSamples: int64(opts.HedgeMinSamples),
	}
	for i, addrs := range groups {
		g := &replicaGroup{hedge: c.hedge}
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

// Validate probes every replica of every group and checks identity:
// shard id, count, hash scheme, and the partition CRC — against the
// manifest when one was provided, and always across the group's own
// replicas, since hedging and failover are only byte-preserving when
// every replica serves the identical partition. With a manifest it also
// checks that the split holds exactly the coordinator's postings: the
// coordinator's index is where every answer's postings come from, so
// one loaded from a different snapshot than the shards must not serve.
// A coordinator serving in front of mismatched shards would silently
// misroute, so deployments call this before taking traffic.
func (c *Coordinator) Validate(ctx context.Context) error {
	n := len(c.groups)
	if m := c.opts.Manifest; m != nil {
		split := 0
		for _, si := range m.Shards {
			split += si.Postings
		}
		if own := c.sys.Index.NumPostings(); split != own {
			return fmt.Errorf("shard: the split holds %d postings, the coordinator's index %d — coordinator and shards loaded from different snapshots?", split, own)
		}
	}
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

// QueryScoredContext implements qserve.Engine: the scatter-gather top-k
// query ranked by the named scorer, with the relaxation record; see the
// package comment for the protocol and its equivalence argument. It is
// the single-node pipeline run over a query-scoped source that carries
// the coordinator's containing lists, with one stage swapped: the
// coordinator plans nothing itself, and its execute stage scatters the
// plan classes to the shard groups and merges their streams. So every
// rule a single node applies — k ≤ 0, the full fetch a non-default
// scorer needs, StrictMinimal, re-ranking — is applied here by the same
// code. Shards relax identically against the same shipped lists (the
// CRC cross-check would catch any divergence).
func (c *Coordinator) QueryScoredContext(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *pipeline.Relaxation, error) {
	sc, err := c.sys.ResolveScorer(scorer)
	if err != nil {
		return nil, nil, err
	}
	c.queries.Add(1)

	// Read the containing lists from the coordinator's own index, keyed
	// by the normalized form the wire uses: exactly the lists a single
	// node's discover stage reads. A keyword with no tokens is left to
	// discover to refuse.
	lists := make(map[string][]kwindex.Posting, len(keywords))
	for _, kw := range keywords {
		if nk := NormKeyword(kw); nk != "" {
			lists[nk] = c.sys.Index.ContainingList(nk)
		}
	}
	if c.sys.Opts.Relax {
		// Relaxation may substitute a no-match phrase by one of its
		// tokens, so the query-scoped source must carry each token's list
		// too — for the coordinator's own derivation and for every
		// shard's identical one.
		for _, kw := range keywords {
			for _, t := range kwindex.Tokenize(kw) {
				if _, ok := lists[t]; !ok {
					lists[t] = c.sys.Index.ContainingList(t)
				}
			}
		}
	}
	st := &scatterStage{c: c, keywords: keywords, lists: lists,
		postings: c.sys.Index.NumPostings(), numKeywords: c.sys.Index.NumKeywords()}
	p := c.sys.PipelineWith(NewQuerySource(lists, st.postings, st.numKeywords))
	p.Execute = st
	q := &pipeline.Query{
		Keywords: keywords,
		Mode:     pipeline.ModeTopK,
		K:        k,
		Strategy: exec.NestedLoop,
		Scorer:   sc,
		Own:      func(int) bool { return false },
	}
	if err := p.Run(ctx, q); err != nil {
		return nil, nil, err
	}
	return q.Results, q.Relaxation, nil
}

// scatterStage is the coordinator's execute stage. The derived network
// list attaches results to networks and cross-checks every shard's
// derivation by CRC; the plans themselves run on the shards.
type scatterStage struct {
	c *Coordinator
	// keywords are the request's, as every shard derives from them.
	keywords []string
	// lists, postings and numKeywords make up the query-scoped source
	// every shard rebuilds from the request.
	lists                 map[string][]kwindex.Posting
	postings, numKeywords int
}

func (s *scatterStage) Name() string { return pipeline.StageExecute }

// Run scatters execution, partitioned by plan: class p is the plans
// whose index is ≡ p (mod n), and every class that holds a plan is
// executed by exactly one shard — its own while that shard lives. Dead
// shards' classes are covered by survivors: execution needs only the
// request (it carries the query's full postings) and the replicated
// structural data, so reassignment keeps the answer exact. A shard
// whose cover stays empty — more shards than plans — is not called.
// Each shard caps its cover at q.Limit() results, as a single node caps
// its plans, and MergeTopK merges the streams on the canonical order.
func (s *scatterStage) Run(ctx context.Context, q *pipeline.Query, rep *pipeline.StageReport) error {
	c := s.c
	rep.In = int64(len(q.Plans))
	rep.Note = "scatter"
	if len(q.Nets) == 0 {
		// The shape admits no candidate network. Every shard would
		// derive the same empty list (CRC of nothing), so skip the
		// scatter.
		q.Results = nil
		return nil
	}
	wantCRC := q.NetsCRC()
	fetchK := q.Limit()
	n := len(c.groups)
	alive := make([]bool, n)
	covers := make([][]int, n)
	for i := range alive {
		alive[i] = true
		if i < len(q.Nets) {
			covers[i] = []int{i}
		}
	}
	var pending []int // classes needing a reassignment
	wireLists := EncodeLists(s.lists)
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
				return fmt.Errorf("%w: no shard left to execute plan classes %v", ErrNoQuorum, pending)
			}
			for j, p := range pending {
				covers[hosts[j%len(hosts)]] = append(covers[hosts[j%len(hosts)]], p)
			}
			c.reassignments.Add(int64(len(pending)))
			c.opts.Logf("shard: reassigned plan classes %v to surviving shards", pending)
			pending = nil
		}
		// Fan this round's requests to shards with uncollected covers.
		type execOut struct {
			resp *ExecResponse
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
				out := &execOut{}
				out.resp, out.err = c.groups[i].do(ctx, &ExecRequest{
					Keywords:       s.keywords,
					K:              fetchK,
					Strategy:       uint8(q.Strategy),
					N:              n,
					Parts:          covers[i],
					Lists:          wireLists,
					GlobalPostings: s.postings,
					GlobalKeywords: s.numKeywords,
				}, c.opts.Retry)
				if out.err == nil && out.resp.NetsCRC != wantCRC {
					c.crcMismatches.Add(1)
					out.err = fmt.Errorf("shard %d derived networks CRC %08x, coordinator %08x — mismatched structural data?", i, out.resp.NetsCRC, wantCRC)
				}
				outs[i] = out
			}(i)
		}
		ewg.Wait()
		if err := ctx.Err(); err != nil {
			return err
		}
		for i, out := range outs {
			if out == nil {
				continue // shard had no cover this round
			}
			if out.err != nil {
				c.opts.Logf("shard: lost shard %d: %v", i, out.err)
				alive[i] = false
				pending = append(pending, covers[i]...)
				covers[i] = nil
				continue
			}
			stream := make([]exec.Result, 0, len(out.resp.Results))
			for _, wr := range out.resp.Results {
				pi := int(wr.Ord >> 32)
				if pi < 0 || pi >= len(q.Nets) {
					return fmt.Errorf("shard: shard %d returned result for plan %d of %d", i, pi, len(q.Nets))
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
		return fmt.Errorf("%w: plan classes %v still unexecuted after reassignment", ErrNoQuorum, pending)
	}
	q.Results = MergeTopK(streams, fetchK)
	rep.Out = int64(len(q.Results))
	return nil
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
		if kwindex.Health(reps[best].State).Worse(kwindex.Health(reps[ri].State)) {
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

// IndexHealthState implements the serving layer's health probe. The
// coordinator's own index supplies every query's postings, so its
// failure with no fallback is unavailable, exactly as on a single node.
// Of the shard groups: unavailable only when none has a live replica —
// any live group can execute every plan class; degraded while any
// replica is down or degraded — every loss is an exact reassignment, but
// an operator should look; ok otherwise.
func (c *Coordinator) IndexHealthState() (core.IndexHealth, error) {
	own, ownErr := kwindex.HealthOf(c.sys.Index)
	if own == core.IndexUnavailable {
		return own, fmt.Errorf("coordinator index: %w", ownErr)
	}
	states := c.ShardStates()
	live, notOK := 0, 0
	var firstDetail string
	for _, st := range states {
		if st.State != string(core.IndexUnavailable) {
			live++
		}
		// The serving layer asks after every query, so the detail is
		// formatted only for the first sick group or replica.
		sick := -1 // the first sick replica of a group that is ok
		if st.State == string(core.IndexOK) {
			for ri, r := range st.Replicas {
				if r.State != string(core.IndexOK) {
					sick = ri
					break
				}
			}
			if sick < 0 {
				continue
			}
		}
		notOK++
		switch {
		case firstDetail != "":
		case sick < 0:
			firstDetail = fmt.Sprintf("shard %d at %s: %s (%s)", st.ID, st.Addr, st.State, st.Detail)
		default:
			r := st.Replicas[sick]
			firstDetail = fmt.Sprintf("shard %d replica %d at %s: %s (%s)", st.ID, r.Replica, r.Addr, r.State, r.Detail)
		}
	}
	if live == 0 {
		return core.IndexUnavailable, fmt.Errorf("none of %d shards reachable; %s", len(states), firstDetail)
	}
	if own == core.IndexDegraded {
		return own, fmt.Errorf("coordinator index: %w", ownErr)
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
	Queries       int64 `json:"queries"`
	Reassignments int64 `json:"reassignments"`
	CRCMismatches int64 `json:"crc_mismatches"`
	// Failovers counts group requests a non-preferred replica saved
	// after its sibling failed; Hedges/HedgeWins count hedged requests
	// fired and those the hedge answered first.
	Failovers int64               `json:"failovers"`
	Hedges    int64               `json:"hedges"`
	HedgeWins int64               `json:"hedge_wins"`
	Shards    []qserve.ShardState `json:"shards"`
}

// Stats snapshots the coordinator counters, failover and hedging
// figures, and the per-shard (per-replica) states.
func (c *Coordinator) Stats() CoordSnapshot {
	var failovers int64
	for _, g := range c.groups {
		failovers += g.failovers.Load()
	}
	snap := CoordSnapshot{
		N:             len(c.groups),
		Replicas:      c.Replicas(),
		Queries:       c.queries.Load(),
		Reassignments: c.reassignments.Load(),
		CRCMismatches: c.crcMismatches.Load(),
		Failovers:     failovers,
		Hedges:        c.hedge.fired.Load(),
		HedgeWins:     c.hedge.wins.Load(),
		Shards:        c.ShardStates(),
	}
	sort.Slice(snap.Shards, func(i, j int) bool { return snap.Shards[i].ID < snap.Shards[j].ID })
	return snap
}
