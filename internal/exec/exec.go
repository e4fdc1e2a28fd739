// Package exec implements XKeyword's execution module (paper §6):
// nested-loop evaluation of CTSSN plans over connection relations — the
// naive non-caching algorithm of DISCOVER/DBXplorer, which serves
// queries, and the optimized partial-result caching algorithm the
// experiments measure against it — a hash-join strategy for full-result
// queries over unindexed decompositions, and the serial smallest-first
// top-k evaluation across candidate networks.
package exec

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cn"
	"repro/internal/kwindex"
	"repro/internal/optimizer"
	"repro/internal/relstore"
	"repro/internal/tss"
)

// Result is one MTTON: an assignment of target objects to the CTSSN's
// occurrences. Its score is the size of the corresponding MTNN in schema
// edges — smaller is better.
type Result struct {
	Net   *cn.TSSNetwork
	Bind  []int64 // TO id per occurrence
	Score int
	// Ord is the result's position in the canonical enumeration order:
	// the plan's index in the ascending-score plan list (high 32 bits)
	// and the result's emission sequence within that plan (low 32 bits).
	// Plans are sorted ascending by score, so ordering by Ord alone
	// refines ordering by Score; (Score, Ord) is a total order that is
	// identical on every replica executing the same plan list, which is
	// what lets a scatter-gather coordinator merge per-shard top-k
	// streams byte-identically to single-node execution.
	Ord int64
}

// MakeOrd packs a plan index and a per-plan emission sequence into a
// canonical-order key. Both must fit in 32 bits, which they do by a wide
// margin (plan counts are bounded by CN generation, sequences by result
// enumeration).
func MakeOrd(plan, seq int) int64 { return int64(plan)<<32 | int64(seq) }

// OrdLess orders results by (Score, Ord) — the canonical total order all
// ranked surfaces (single-node rank stage, top-k collection, coordinator
// merge) agree on.
func OrdLess(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Ord < b.Ord
}

// Key returns a canonical identity for deduplication.
func (r Result) Key() string {
	return fmt.Sprint(r.Net.Canon(), r.Bind)
}

// Executor evaluates plans. Evaluation does not modify the executor, so
// one may serve several goroutines. A query runs its plans serially
// through one executor; with a Cache, the memo is shared across those
// plans, which is how §6 reuses common subexpressions between candidate
// networks.
type Executor struct {
	Store *relstore.Store
	TSS   *tss.Graph
	// Cache enables the optimized execution algorithm: connection
	// relation lookups are memoized so repeated queries are not re-sent
	// to the store (§6). Nil runs the naive algorithm.
	Cache *LookupCache
	// NoPushdown disables keyword-filter pushdown (§8's "tighter
	// integration of the master index into the execution engine"):
	// normally, when a probe would return many rows but a newly bound
	// column is keyword-constrained to a small TO set, the executor
	// issues composite (probe value, keyword TO) lookups instead of
	// filtering after the fact. Used for ablation.
	NoPushdown bool
}

// LookupCache memoizes relation lookups with a bounded entry count; when
// full, new results are not cached (the paper re-sends queries when its
// fixed-size cache fills). Entries are views into the store, not copies.
type LookupCache struct {
	mu      sync.Mutex
	entries map[lookupKey]relstore.Rows
	cap     int
	hits    int64
	misses  int64
}

type lookupKey struct {
	rel  *relstore.Relation
	col  int
	val  int64
	col2 int // -1 for single-column lookups
	val2 int64
}

// NewLookupCache returns a cache bounded to capacity entries
// (0 = unlimited).
func NewLookupCache(capacity int) *LookupCache {
	return &LookupCache{entries: make(map[lookupKey]relstore.Rows), cap: capacity}
}

// Stats returns cumulative hit and miss counts.
func (c *LookupCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

func (c *LookupCache) get(k lookupKey) (relstore.Rows, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rows, ok := c.entries[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return rows, ok
}

func (c *LookupCache) put(k lookupKey, rows relstore.Rows) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap > 0 && len(c.entries) >= c.cap {
		return
	}
	c.entries[k] = rows
}

// Evaluate runs the plan's nested-loop pipeline, calling emit for every
// result; emit returns false to stop early (top-k). The traversal is
// depth-first in plan-step order, exactly the §6 nesting.
func (ex *Executor) Evaluate(p *optimizer.Plan, emit func(Result) bool) error {
	return ex.EvaluateContext(context.Background(), p, emit)
}

// evaluation is the state of one EvaluateContext call, recycled through
// evalPool so that a warm evaluation allocates nothing but the Bind of
// each result it emits: the binding array, the cancellation poller and
// the I/O counters of all its probes, flushed to the store once.
type evaluation struct {
	ex    *Executor
	p     *optimizer.Plan
	emit  func(Result) bool
	cc    cancelCheck
	io    relstore.IOStats
	bind  []int64
	score int
}

var evalPool = sync.Pool{New: func() any { return new(evaluation) }}

// EvaluateContext is Evaluate with cooperative cancellation: the join
// loops poll ctx periodically (and exactly at every emission), so a
// cancelled context stops an in-flight evaluation mid-join and
// EvaluateContext returns ctx's error. No result is emitted after the
// cancellation is observed.
func (ex *Executor) EvaluateContext(ctx context.Context, p *optimizer.Plan, emit func(Result) bool) error {
	if len(p.Steps) == 0 {
		return fmt.Errorf("exec: empty plan")
	}
	for i := range p.Steps {
		if s := &p.Steps[i]; !s.Seed && s.Rel == nil {
			return fmt.Errorf("exec: relation %s not materialized", s.Piece.Frag.RelationName())
		}
	}
	cc := newCancelCheck(ctx)
	if cc.err != nil {
		return cc.err
	}
	ev := evalPool.Get().(*evaluation)
	n := len(p.Net.Occs)
	if cap(ev.bind) < n {
		ev.bind = make([]int64, n)
	}
	*ev = evaluation{ex: ex, p: p, emit: emit, cc: cc, bind: ev.bind[:n], score: p.Net.Score()}
	clear(ev.bind)
	ev.run(0)
	err := ev.cc.err
	ex.Store.Stats.Add(ev.io)
	*ev = evaluation{bind: ev.bind} // drop the references before pooling
	evalPool.Put(ev)
	return err
}

// run executes plan step `step` under the current bindings and recurses
// into the next; it returns false to stop the whole evaluation.
func (ev *evaluation) run(step int) bool {
	p, bind := ev.p, ev.bind
	if step == len(p.Steps) {
		if ev.cc.now() {
			return false
		}
		return ev.emit(Result{Net: p.Net, Bind: append([]int64(nil), bind...), Score: ev.score})
	}
	s := &p.Steps[step]
	if s.Seed {
		for _, to := range p.Filters[s.Occ] {
			if ev.cc.tick() {
				return false
			}
			if boundElsewhere(bind, s.Occ, to) {
				continue
			}
			bind[s.Occ] = to
			ok := ev.run(step + 1)
			bind[s.Occ] = 0
			if !ok {
				return false
			}
		}
		return true
	}
	val := bind[s.Piece.Occs[s.ProbePos]]
	if pd := ev.pushdown(s); pd != nil {
		return ev.runPushdown(step, s, pd, val)
	}
	return ev.join(step, s, ev.lookup(s.Probe, lookupKey{rel: s.Rel, col: s.ProbePos, val: val, col2: -1}))
}

// pushdown picks the composite access path of the step's first newly
// bound position whose keyword filter is small enough to push into the
// probe (§8's tighter master-index integration), or nil.
func (ev *evaluation) pushdown(s *optimizer.Step) *optimizer.Pushdown {
	if ev.ex.NoPushdown {
		return nil
	}
	for i := range s.Push {
		pd := &s.Push[i]
		if f := ev.p.Filters[s.Piece.Occs[pd.Pos]]; len(f) > 0 && len(f) <= optimizer.PushdownMaxSet {
			return pd
		}
	}
	return nil
}

// runPushdown probes with one composite (probe value, keyword TO) point
// lookup per TO of the pushed filter instead of one range probe filtered
// after the fact. All lookups are issued before any row is joined, the
// order the store's buffer pool has always seen. It is its own function
// so that only steps that push down pay for the view array's stack.
func (ev *evaluation) runPushdown(step int, s *optimizer.Step, pd *optimizer.Pushdown, val int64) bool {
	var views [optimizer.PushdownMaxSet]relstore.Rows
	tos := ev.p.Filters[s.Piece.Occs[pd.Pos]]
	for i, to := range tos {
		views[i] = ev.lookup(pd.Access, lookupKey{rel: s.Rel, col: s.ProbePos, val: val, col2: pd.Pos, val2: to})
	}
	for i := range tos {
		if !ev.join(step, s, views[i]) {
			return false
		}
	}
	return true
}

// lookup probes a connection relation, through the cache when enabled.
func (ev *evaluation) lookup(a relstore.Access, k lookupKey) relstore.Rows {
	vals := [2]int64{k.val, k.val2}
	n := 1
	if k.col2 >= 0 {
		n = 2
	}
	c := ev.ex.Cache
	if c == nil {
		return a.Lookup(vals[:n], &ev.io)
	}
	if rows, ok := c.get(k); ok {
		return rows
	}
	rows := a.Lookup(vals[:n], &ev.io)
	c.put(k, rows)
	return rows
}

// join extends the current bindings with every row of a probe's view
// that agrees with them, recursing into the next step per row.
func (ev *evaluation) join(step int, s *optimizer.Step, rows relstore.Rows) bool {
	p, bind, occs := ev.p, ev.bind, s.Piece.Occs
rowLoop:
	for i, n := 0, rows.Len(); i < n; i++ {
		if ev.cc.tick() {
			return false
		}
		row := rows.At(i)
		for _, pos := range s.CheckPos {
			if row[pos] != bind[occs[pos]] {
				continue rowLoop
			}
		}
		for _, pos := range s.NewPos {
			occ := occs[pos]
			to := row[pos]
			if f := p.Filters[occ]; f != nil && !kwindex.HasTO(f, to) {
				continue rowLoop
			}
			if boundElsewhere(bind, occ, to) {
				continue rowLoop
			}
		}
		// Distinctness among the new positions themselves.
		for i, pi := range s.NewPos {
			for _, pj := range s.NewPos[i+1:] {
				if row[pi] == row[pj] {
					continue rowLoop
				}
			}
		}
		for _, pos := range s.NewPos {
			bind[occs[pos]] = row[pos]
		}
		ok := ev.run(step + 1)
		for _, pos := range s.NewPos {
			bind[occs[pos]] = 0
		}
		if !ok {
			return false
		}
	}
	return true
}

// boundElsewhere reports whether TO to is already bound to an occurrence
// other than occ (results are trees of distinct target objects).
func boundElsewhere(bind []int64, occ int, to int64) bool {
	for i, b := range bind {
		if i != occ && b == to {
			return true
		}
	}
	return false
}

// All evaluates the plan to completion and returns every result.
func (ex *Executor) All(p *optimizer.Plan) ([]Result, error) {
	var out []Result
	err := ex.Evaluate(p, func(r Result) bool {
		out = append(out, r)
		return true
	})
	return out, err
}
