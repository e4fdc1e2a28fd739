// Package rank makes the pipeline's rank stage pluggable: a Scorer
// reorders (and truncates) the materialized result list of a keyword
// query. The paper ranks purely by MTNN edge count (§3.1) and names
// richer semantics as future work (§8); the weighted and diversified
// scorers implement the two directions the related graph-keyword-search
// literature takes it (content/TF-IDF-weighted costs per Kargar et al.,
// diversified top-k).
//
// Scorer contract. Every scorer receives the result list in the
// canonical (Score, Ord) total order — the order exec/topk, the qserve
// cache and the shard coordinator's MergeTopK all agree on — and must
// be a deterministic function of (that order, the Context): no
// randomness, no wall clock, no iteration over Go maps into the output
// order. Ties MUST be broken by the canonical order, so a scorer's
// output is byte-identical across replicas and across the single-node
// and scatter-gather paths. The default edge-count scorer returns the
// canonical order unchanged; the engine detects it with IsDefault and
// keeps the early-terminating top-k path, which is only sound for the
// canonical order.
package rank

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cn"
	"repro/internal/exec"
	"repro/internal/kwindex"
	"repro/internal/optimizer"
	"repro/internal/tss"
)

// Context is what a scorer may consult besides the results themselves.
// On the scatter-gather path Index is the query-scoped source (the
// merged global postings of the query's own keywords), so scorers must
// only look up keywords that occur in the results' networks — which by
// construction are the query's keywords.
type Context struct {
	TSS      *tss.Graph
	Index    kwindex.Source
	Keywords []string // normalized query keywords
}

// Scorer reorders a canonically-ordered result list and truncates it to
// k (k <= 0 keeps all). See the package comment for the determinism
// contract.
type Scorer interface {
	// Name returns the registry name ("edgecount", "weighted", ...).
	Name() string
	// Rank returns the re-ranked, truncated list. It may reorder rs in
	// place and must not retain it.
	Rank(rc Context, rs []exec.Result, k int) []exec.Result
}

// DefaultName names the scorer that reproduces the paper's ranking.
const DefaultName = "edgecount"

// Names lists the shipped scorers, default first.
func Names() []string { return []string{DefaultName, "weighted", "diversified"} }

// New resolves a scorer by name; "" selects the default. Unknown names
// error loudly — a typoed -scorer flag must not silently rank by edge
// count.
func New(name string) (Scorer, error) {
	switch name {
	case "", DefaultName:
		return EdgeCount{}, nil
	case "weighted":
		return Weighted{}, nil
	case "diversified":
		return Diversified{}, nil
	}
	return nil, fmt.Errorf("rank: unknown scorer %q (have %v)", name, Names())
}

// Valid reports whether name resolves ("" counts: it is the default).
func Valid(name string) bool {
	_, err := New(name)
	return err == nil
}

// IsDefault reports whether s ranks by the canonical order itself — the
// engine then keeps the early-terminating top-k execution path, which
// is byte-identical to the pre-scorer behavior.
func IsDefault(s Scorer) bool {
	if s == nil {
		return true
	}
	_, ok := s.(EdgeCount)
	return ok
}

// truncate caps rs at k when k > 0.
func truncate(rs []exec.Result, k int) []exec.Result {
	if k > 0 && len(rs) > k {
		return rs[:k]
	}
	return rs
}

// canonicalize sorts rs into the canonical (Score, Ord) order. Scorers
// receive the list canonically ordered from the pipeline, but direct
// callers (tests, tools) may not keep that invariant.
func canonicalize(rs []exec.Result) {
	sort.Slice(rs, func(i, j int) bool { return exec.OrdLess(rs[i], rs[j]) })
}

// EdgeCount is the paper's ranking — the MTNN edge count carried in
// Result.Score, tie-broken by the canonical enumeration order. It is
// the identity on a canonically-ordered list, which is exactly why it
// is the default: the engine proves refactor equivalence against it.
type EdgeCount struct{}

// Name implements Scorer.
func (EdgeCount) Name() string { return DefaultName }

// Rank implements Scorer: canonical order, truncated.
func (EdgeCount) Rank(rc Context, rs []exec.Result, k int) []exec.Result {
	canonicalize(rs)
	return truncate(rs, k)
}

// Weighted ranks by content-weighted network cost, after Kargar et al.:
// reference edges (IDREF jumps across the document) cost more than
// containment edges, and every keyword occurrence contributes a node
// cost that shrinks with the keyword's rarity at that schema node (an
// IDF weight — a tree reaching "Codd" through the rare aname extension
// beats one reaching "database" through ubiquitous titles). Lower cost
// ranks first; exact cost ties fall back to the canonical order.
type Weighted struct{}

// Weighted scorer constants. Reference hops cost double (they leave the
// document tree); alpha blends the node costs against the edge costs.
const (
	weightedContainment = 1.0
	weightedReference   = 2.0
	weightedAlpha       = 0.5
)

// Name implements Scorer.
func (Weighted) Name() string { return "weighted" }

// Rank implements Scorer.
func (Weighted) Rank(rc Context, rs []exec.Result, k int) []exec.Result {
	canonicalize(rs)
	w := cn.Weights{Containment: weightedContainment, Reference: weightedReference}
	// Document frequencies are the sizes of the (keyword, schema node)
	// TO sets, memoized so each keyword's containing list is read once:
	// every result of one network shares them.
	sets := make(optimizer.TOSets)
	df := func(ka cn.KeywordAt) int {
		if rc.Index == nil {
			return 0
		}
		return len(sets.Get(rc.Index, ka))
	}
	total := 0.0
	if rc.Index != nil {
		total = float64(rc.Index.NumPostings())
	}
	costs := make([]float64, len(rs))
	for i, r := range rs {
		c := r.Net.WeightedScore(w)
		for _, occ := range r.Net.Occs {
			for _, ka := range occ.Keywords {
				// IDF-style rarity: a keyword held by few target objects
				// of this schema node is cheap to reach (more specific),
				// a ubiquitous one is expensive. 1/(1+log2(1+N/(1+df)))
				// is in (0, 1], monotonically increasing in df.
				rarity := math.Log2(1 + total/float64(1+df(ka)))
				c += weightedAlpha / (1 + rarity)
			}
		}
		costs[i] = c
	}
	// Sort an index permutation so the comparator reads stable cost
	// slots; stability over the canonical input order is the tie-break.
	idx := make([]int, len(rs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return costs[idx[a]] < costs[idx[b]] })
	out := make([]exec.Result, len(rs))
	for i, j := range idx {
		out[i] = rs[j]
	}
	return truncate(out, k)
}

// Diversified is greedy diversified top-k: each step picks the
// canonically-best remaining result after penalizing target objects
// already shown, so the top of the list covers distinct regions of the
// data instead of k permutations of one hub object. Ties (equal
// penalized score) fall back to the canonical order, keeping the output
// deterministic.
type Diversified struct{}

// diversifyPenalty is the score penalty per already-displayed target
// object a candidate rebinds. Score is an edge count (small integers),
// so 2 per repeated TO is a strong push toward novelty without ever
// promoting a result that shares nothing but is many edges larger.
const diversifyPenalty = 2.0

// Name implements Scorer.
func (Diversified) Name() string { return "diversified" }

// Rank implements Scorer.
func (Diversified) Rank(rc Context, rs []exec.Result, k int) []exec.Result {
	canonicalize(rs)
	n := len(rs)
	limit := n
	if k > 0 && k < n {
		limit = k
	}
	if n == 0 {
		return rs
	}
	seen := make(map[int64]int, n) // TO id -> times displayed
	used := make([]bool, n)
	out := make([]exec.Result, 0, limit)
	for len(out) < limit {
		best, bestEff := -1, 0.0
		for i, r := range rs {
			if used[i] {
				continue
			}
			overlap := 0
			for _, to := range r.Bind {
				overlap += seen[to]
			}
			eff := float64(r.Score) + diversifyPenalty*float64(overlap)
			// Candidates are scanned in canonical order, so strict < keeps
			// the canonical-first tie-break.
			if best < 0 || eff < bestEff {
				best, bestEff = i, eff
			}
		}
		used[best] = true
		out = append(out, rs[best])
		for _, to := range rs[best].Bind {
			seen[to]++
		}
	}
	return out
}
