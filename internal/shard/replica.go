package shard

// Replica groups: every partition can be served by several
// interchangeable replicas (independent xkserve -shard-of processes
// over byte-identical copies of the same shard directory). The
// coordinator routes each protocol request to the healthiest replica of
// the partition's group, fails over to siblings on error, breaker-open
// or timeout, and — for requests whose latency history says the primary
// is past its p95 — hedges the same idempotent request to a second
// replica, taking the first success and cancelling the loser. Replicas
// serve identical partition data (Validate cross-checks the partition
// CRC across the group at connect time), so any replica's answer is THE
// answer and hedging cannot change a single byte of the merged result.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// hedgeControl is the coordinator-wide hedging policy and budget,
// shared by every replica group. The budget is global on purpose: a
// cluster-wide latency event must not let every group double its
// request volume at once — that is how retry storms start.
type hedgeControl struct {
	disabled   bool
	minDelay   time.Duration
	maxDelay   time.Duration
	budgetPct  int64 // hedges allowed per 100 group requests
	minSamples int64 // latency observations before p95 is trusted

	reqs  atomic.Int64 // group calls that could have hedged
	fired atomic.Int64 // hedges actually sent
	wins  atomic.Int64 // hedges that answered before the primary
}

// allow reports whether the budget admits one more hedge. The +100
// grace lets the very first eligible requests hedge before any volume
// has accumulated; after that, fired hedges are capped at budgetPct
// percent of group requests.
func (hc *hedgeControl) allow() bool {
	if hc == nil || hc.disabled {
		return false
	}
	return hc.fired.Load()*100 < hc.reqs.Load()*hc.budgetPct+100
}

// replicaGroup is the coordinator's handle to one partition's replica
// set: the per-replica clients (each with its own breaker, latency
// histogram and last-error record) plus the group's failover counter.
type replicaGroup struct {
	replicas []*shardClient
	hedge    *hedgeControl

	failovers atomic.Int64 // successes that needed a non-preferred replica after a failure
}

// order ranks the group's replicas healthiest-first: breaker-closed
// before broken, zero consecutive failures before some, proven
// replicas (any latency history) before never-used ones — an empty
// histogram reads p50=0, which must not make an idle sibling look
// faster than the replica actually serving — then by observed p50,
// ties broken by replica index so routing is deterministic when
// nothing distinguishes the replicas. Broken replicas stay in the
// list — when every sibling fails they are still tried, which is how
// a half-open probe gets through on the query path.
func (g *replicaGroup) order() []*shardClient {
	type cand struct {
		cl     *shardClient
		broken bool
		fails  int
		proven bool
		p50    time.Duration
		idx    int
	}
	cands := make([]cand, len(g.replicas))
	for i, cl := range g.replicas {
		broken, fails := cl.state()
		cands[i] = cand{cl: cl, broken: broken, fails: fails, proven: cl.lat.Count() > 0, p50: cl.lat.Quantile(0.50), idx: i}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		if ca.broken != cb.broken {
			return !ca.broken
		}
		if (ca.fails > 0) != (cb.fails > 0) {
			return ca.fails == 0
		}
		if ca.proven != cb.proven {
			return ca.proven
		}
		if ca.p50 != cb.p50 {
			return ca.p50 < cb.p50
		}
		return ca.idx < cb.idx
	})
	out := make([]*shardClient, len(cands))
	for i, c := range cands {
		out[i] = c.cl
	}
	return out
}

// do routes one idempotent execute request through the group: the
// healthiest replica first (possibly hedged to the next), failing over
// down the health order until a replica answers. It fails only when
// every replica has — the coordinator then reassigns the group's plan
// classes to the other groups, exactly as for a dead single-replica
// shard.
func (g *replicaGroup) do(ctx context.Context, req *ExecRequest, retry fault.RetryPolicy) (*ExecResponse, error) {
	order := g.order()
	var lastErr error
	for i := 0; i < len(order); i++ { //xk:ignore retryloop failover walks DIFFERENT replicas, not the same resource; per-attempt backoff lives in retry

		primary := order[i]
		var backup *shardClient
		if i+1 < len(order) {
			backup = order[i+1]
		}
		winner, resp, primaryFailed, backupFailed, err := g.attempt(ctx, req, primary, backup, retry)
		if err == nil {
			if i > 0 || (winner == backup && primaryFailed) {
				g.failovers.Add(1)
			}
			return resp, nil
		}
		lastErr = err
		if backupFailed {
			i++ // the hedge already tried (and failed) the next replica
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// hedgeDelay derives the hedge trigger from the primary replica's own
// latency history: its p95, clamped to the configured bounds. Hedging
// starts only once enough samples exist — before that a cold histogram
// would read p95=0 and hedge every request on arrival.
func (g *replicaGroup) hedgeDelay(primary *shardClient) (time.Duration, bool) {
	hc := g.hedge
	if hc == nil || hc.disabled {
		return 0, false
	}
	if primary.lat.Count() < hc.minSamples {
		return 0, false
	}
	d := primary.lat.Quantile(0.95)
	if d < hc.minDelay {
		d = hc.minDelay
	}
	if d > hc.maxDelay {
		d = hc.maxDelay
	}
	return d, true
}

// attempt runs one possibly-hedged request: the primary immediately,
// and — when a live backup, the latency history and the hedge budget
// allow — the identical request to the backup after the hedge delay,
// taking the first success. The loser is cancelled through the shared
// attempt context, never leaked: its goroutine aborts its HTTP request,
// sends into the buffered channel and exits.
func (g *replicaGroup) attempt(ctx context.Context, req *ExecRequest, primary, backup *shardClient, retry fault.RetryPolicy) (winner *shardClient, resp *ExecResponse, primaryFailed, backupFailed bool, err error) {
	hc := g.hedge
	if hc != nil && !hc.disabled && backup != nil {
		hc.reqs.Add(1)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel() // hedge losers are cancelled, not leaked

	type result struct {
		cl   *shardClient
		resp *ExecResponse
		err  error
	}
	// Buffered to the attempt count: a loser finishing after this call
	// returned sends without blocking and its goroutine exits.
	ch := make(chan result, 2)
	launch := func(cl *shardClient) {
		// Each in-flight attempt decodes into its own response, so
		// concurrent attempts never race; the winner's is returned.
		go func() {
			resp := new(ExecResponse)
			ch <- result{cl: cl, resp: resp, err: cl.call(actx, "/shard/execute", req, resp, retry)}
		}()
	}
	launch(primary)
	outstanding := 1

	var hedgeC <-chan time.Time
	if backup != nil {
		if d, ok := g.hedgeDelay(primary); ok {
			timer := time.NewTimer(d)
			defer timer.Stop()
			hedgeC = timer.C
		}
	}
	var firstErr error
	for {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				if hc != nil && r.cl == backup && !primaryFailed {
					hc.wins.Add(1)
				}
				cancel() // abort the loser promptly
				return r.cl, r.resp, primaryFailed, backupFailed, nil
			}
			if r.cl == primary {
				primaryFailed = true
			} else {
				backupFailed = true
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if outstanding == 0 {
				return nil, nil, primaryFailed, backupFailed, firstErr
			}
			// The other attempt is still in flight (the primary failed
			// under a hedge, or the hedge failed first): wait it out —
			// it may still succeed and save the request.
		case <-hedgeC:
			hedgeC = nil
			if !hc.allow() {
				continue
			}
			hc.fired.Add(1)
			launch(backup)
			outstanding++
		}
	}
}

// ParseTopology parses a coordinator topology spec: comma-separated
// shard groups in shard-id order, each a "|"-separated list of replica
// base URLs. "http://a,http://b" is two single-replica shards (the
// pre-replica syntax unchanged); "http://a1|http://a2,http://b1|http://b2"
// is two shards of two replicas each.
func ParseTopology(spec string) ([][]string, error) {
	var groups [][]string
	for _, gs := range strings.Split(spec, ",") {
		if strings.TrimSpace(gs) == "" {
			continue
		}
		var addrs []string
		for _, a := range strings.Split(gs, "|") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return nil, fmt.Errorf("shard: topology group %q lists no replica addresses", gs)
		}
		groups = append(groups, addrs)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("shard: topology %q lists no shard groups", spec)
	}
	return groups, nil
}
