package experiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/presentation"
)

// Fig16a reproduces Figure 16(a): the speedup of the optimized execution
// algorithm (lookup-result caching, §6) over the naive non-caching
// algorithm of DISCOVER/DBXplorer, producing all results of author-chain
// networks, as the CTSSN size grows. The cached run's point carries the
// cached cost; the speedup series is derived in the Format output as the
// naive/cached ratio (also returned as the Results column of the naive
// series for machine reading).
func Fig16a(w *Workload) (Figure, error) {
	fig := Figure{ID: "16a", Title: "optimized vs naive execution (caching)", XLabel: "size"}
	sys, err := w.load(core.PresetXKeyword)
	if err != nil {
		return fig, err
	}
	opt := &optimizer.Optimizer{
		TSS: sys.TSS, Store: sys.Store, Index: sys.Index, Stats: sys.Stats,
		Fragments: sys.Decomp.Fragments, MaxJoins: sys.Opts.B,
	}
	rng := rand.New(rand.NewSource(w.Config.Seed + 2))

	naive := Series{Label: "naive"}
	cached := Series{Label: "optimized"}
	speedup := Series{Label: "speedup (naive/optimized)"}
	for _, size := range w.Config.Sizes {
		var np, cp Point
		np.X, cp.X = size, size
		runs := 0
		for q := 0; q < w.Config.Queries; q++ {
			a1, a2, ok := PairForChain(w.DS, rng, size)
			if !ok {
				continue
			}
			net, err := AuthorChain(sys.TSS, a1, a2, size)
			if err != nil {
				return fig, err
			}
			plan, err := opt.Plan(net)
			if err != nil {
				return fig, err
			}
			for _, mode := range []bool{false, true} {
				ex := &exec.Executor{Store: sys.Store, TSS: sys.TSS}
				if mode {
					ex.Cache = exec.NewLookupCache(0)
				}
				nres := 0
				dur, io := measure(sys.Store, func() {
					_ = ex.Evaluate(plan, func(exec.Result) bool {
						nres++
						return true
					})
				})
				pt := &np
				if mode {
					pt = &cp
				}
				pt.Millis += float64(dur.Microseconds()) / 1000
				pt.Cost += io.Cost()
				pt.Lookups += float64(io.Lookups)
				pt.Results += float64(nres)
			}
			runs++
		}
		if runs > 0 {
			for _, pt := range []*Point{&np, &cp} {
				pt.Millis /= float64(runs)
				pt.Cost /= float64(runs)
				pt.Lookups /= float64(runs)
				pt.Results /= float64(runs)
			}
		}
		sp := Point{X: size}
		if cp.Millis > 0 {
			sp.Millis = np.Millis / cp.Millis // wall-clock speedup
		}
		if cp.Cost > 0 {
			sp.Cost = np.Cost / cp.Cost // I/O-cost speedup
		}
		if cp.Lookups > 0 {
			sp.Lookups = np.Lookups / cp.Lookups
		}
		naive.Points = append(naive.Points, np)
		cached.Points = append(cached.Points, cp)
		speedup.Points = append(speedup.Points, sp)
	}
	fig.Series = []Series{naive, cached, speedup}
	return fig, nil
}

// Fig16b reproduces Figure 16(b): the average time to expand a Paper
// node of the presentation graph of the author-chain network, under the
// three probe sets of §7 — the inlined (multi-edge) relations, the
// minimal (single-edge) relations, and their combination. The paper's
// finding: the combination wins for sizes > 2; minimal is slightly
// better at size 2; inlined is slowest because adjacency checks probe
// oversized relations.
func Fig16b(w *Workload) (Figure, error) {
	fig := Figure{ID: "16b", Title: "presentation-graph expansion of a Paper node", XLabel: "size"}
	sys, err := w.load(core.PresetXKeyword)
	if err != nil {
		return fig, err
	}
	variants := []struct {
		label string
		frags []decomp.Fragment
	}{
		{"inlined", sys.InlinedFragments()},
		{"minimal", sys.MinimalFragments()},
		{"combination", sys.Decomp.Fragments},
	}
	rng := rand.New(rand.NewSource(w.Config.Seed + 3))
	// Shared queries per size so variants expand identical graphs.
	type chainQuery struct {
		size   int
		a1, a2 string
	}
	var queries []chainQuery
	for _, size := range w.Config.Sizes {
		for q := 0; q < w.Config.Queries; q++ {
			if a1, a2, ok := PairForChain(w.DS, rng, size); ok {
				queries = append(queries, chainQuery{size, a1, a2})
			}
		}
	}
	for _, v := range variants {
		series := Series{Label: v.label}
		for _, size := range w.Config.Sizes {
			var pt Point
			pt.X = size
			runs := 0
			for _, q := range queries {
				if q.size != size {
					continue
				}
				net, err := AuthorChain(sys.TSS, q.a1, q.a2, size)
				if err != nil {
					return fig, err
				}
				sess := &presentation.Session{
					TSS: sys.TSS, Obj: sys.Obj, Store: sys.Store, Index: sys.Index,
					Stats: sys.Stats, Fragments: v.frags, Fallback: sys.Decomp.Fragments,
					Cache: exec.NewLookupCache(0),
				}
				g, err := sess.Build(net)
				if err != nil {
					continue // pair raced out of results; skip
				}
				// Expand the first (internal when size > 2) Paper node.
				paperOcc := 1
				added := 0
				dur, io := measure(sys.Store, func() {
					added, err = g.Expand(paperOcc, presentation.ExpandOptions{})
				})
				if err != nil {
					return fig, err
				}
				pt.Millis += float64(dur.Microseconds()) / 1000
				pt.Cost += io.Cost()
				pt.Lookups += float64(io.Lookups)
				pt.Results += float64(added)
				runs++
			}
			if runs > 0 {
				pt.Millis /= float64(runs)
				pt.Cost /= float64(runs)
				pt.Lookups /= float64(runs)
				pt.Results /= float64(runs)
			}
			series.Points = append(series.Points, pt)
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// All runs every figure.
func All(w *Workload) ([]Figure, error) {
	var out []Figure
	for _, fn := range []func(*Workload) (Figure, error){Fig15a, Fig15b, Fig16a, Fig16b} {
		f, err := fn(w)
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
	return out, nil
}
