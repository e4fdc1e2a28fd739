package experiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/optimizer"
)

// fig15Presets are the decompositions compared in Figure 15. The paper's
// chart omits MinNClustNIndx from 15(a) because it is an order of
// magnitude worse; we include it so the claim is checkable.
var fig15Presets = []core.DecompositionPreset{
	core.PresetXKeyword,
	core.PresetComplete,
	core.PresetMinClust,
	core.PresetMinNClustIndx,
	core.PresetMinNClustNIndx,
}

// Fig15a reproduces Figure 15(a): the average time to output the top-K
// results of each candidate network of a two-keyword query, per
// decomposition, for K in cfg.Ks. Lower is better; the paper's findings:
// XKeyword fastest, Complete slower than MinClust (MVD fragment bloat),
// unclustered variants poor.
func Fig15a(w *Workload) (Figure, error) {
	fig := Figure{ID: "15a", Title: "top-K results per candidate network", XLabel: "K"}
	for _, preset := range fig15Presets {
		sys, err := w.load(preset)
		if err != nil {
			return fig, err
		}
		// Plan once per pair; planning (CN generation) is identical
		// across decompositions and excluded from the measurement.
		var pairPlans [][]*optimizer.Plan
		for _, pair := range w.Pairs {
			plans, err := sys.Plans(pair[:])
			if err != nil {
				return fig, err
			}
			pairPlans = append(pairPlans, plans)
		}
		series := Series{Label: string(preset)}
		for _, k := range w.Config.Ks {
			var pt Point
			pt.X = k
			runs := 0
			for _, plans := range pairPlans {
				ex := &exec.Executor{Store: sys.Store, TSS: sys.TSS, Cache: exec.NewLookupCache(0)}
				for _, plan := range plans {
					n := 0
					dur, io := measure(sys.Store, func() {
						_ = ex.Evaluate(plan, func(exec.Result) bool {
							n++
							return n < k
						})
					})
					pt.Millis += float64(dur.Microseconds()) / 1000
					pt.Cost += io.Cost()
					pt.Lookups += float64(io.Lookups)
					pt.Results += float64(n)
					runs++
				}
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

// Fig15b reproduces Figure 15(b): the average time to output ALL results
// of an author-chain candidate network, per decomposition, as the
// CTSSN size grows. The paper's finding: MinNClustNIndx is fastest here
// — full scans plus hash joins beat index nested loops when whole
// relations must be consumed anyway.
func Fig15b(w *Workload) (Figure, error) {
	fig := Figure{ID: "15b", Title: "all results per candidate network", XLabel: "size"}
	rng := rand.New(rand.NewSource(w.Config.Seed + 1))
	// Fixed per-size query pairs shared by every decomposition.
	type sizedQuery struct {
		size   int
		a1, a2 string
	}
	var queries []sizedQuery
	for _, size := range w.Config.Sizes {
		for q := 0; q < w.Config.Queries; q++ {
			if a1, a2, ok := PairForChain(w.DS, rng, size); ok {
				queries = append(queries, sizedQuery{size: size, a1: a1, a2: a2})
			}
		}
	}
	for _, preset := range fig15Presets {
		sys, err := w.load(preset)
		if err != nil {
			return fig, err
		}
		opt := &optimizer.Optimizer{
			TSS: sys.TSS, Store: sys.Store, Index: sys.Index, Stats: sys.Stats,
			Fragments: sys.Decomp.Fragments, MaxJoins: sys.Opts.B,
		}
		series := Series{Label: string(preset)}
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
				plan, err := opt.Plan(net)
				if err != nil {
					return fig, err
				}
				ex := &exec.Executor{Store: sys.Store, TSS: sys.TSS, Cache: exec.NewLookupCache(0)}
				nres := 0
				dur, io := measure(sys.Store, func() {
					_ = ex.Run(plan, exec.AutoStrategy, func(exec.Result) bool {
						nres++
						return true
					})
				})
				pt.Millis += float64(dur.Microseconds()) / 1000
				pt.Cost += io.Cost()
				pt.Lookups += float64(io.Lookups)
				pt.Results += float64(nres)
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
