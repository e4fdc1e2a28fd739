package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/relstore"
)

// FigZ reproduces §7's sensitivity remark — "the absolute times are an
// order of magnitude smaller when we reduce Z by one" — by measuring,
// per maximum MTNN size Z, the candidate network count, the CN
// generation + planning time, and the evaluation time of the top-10
// results of an author-pair query.
func FigZ(w *Workload, zs []int) (Figure, error) {
	if len(zs) == 0 {
		zs = []int{5, 6, 7, 8}
	}
	fig := Figure{ID: "z", Title: "sensitivity to the maximum MTNN size Z", XLabel: "Z"}
	// CN generation is memoized per schema identity; regenerate the
	// dataset so every Z measures a cold generation even when other
	// figures ran first.
	fresh, err := NewWorkload(w.Config)
	if err != nil {
		return fig, err
	}
	w = fresh
	planSeries := Series{Label: "CN generation + planning"}
	evalSeries := Series{Label: "top-10 evaluation"}
	netSeries := Series{Label: "candidate networks"}
	for _, z := range zs {
		sys, err := core.LoadPrepared(w.DS, core.Options{Z: z, B: w.Config.B})
		if err != nil {
			return fig, err
		}
		sys.Store.Pool = relstore.NewBufferPool(w.Config.PoolPages)
		var pp, ep, np Point
		pp.X, ep.X, np.X = z, z, z
		runs := 0
		for _, pair := range w.Pairs {
			t0 := time.Now()
			plans, err := sys.Plans(pair[:])
			if err != nil {
				return fig, err
			}
			// CN generation is memoized across same-shape queries; the
			// maximum over pairs is the cold (first) generation cost,
			// which is what grows with Z.
			if ms := float64(time.Since(t0).Microseconds()) / 1000; ms > pp.Millis {
				pp.Millis = ms
			}
			np.Results += float64(len(plans))

			ex := &exec.Executor{Store: sys.Store, TSS: sys.TSS, Cache: exec.NewLookupCache(0)}
			nres := 0
			dur, io := measure(sys.Store, func() {
				for _, p := range plans {
					if nres >= 10 {
						break
					}
					_ = ex.Evaluate(p, func(exec.Result) bool {
						nres++
						return nres < 10
					})
				}
			})
			ep.Millis += float64(dur.Microseconds()) / 1000
			ep.Cost += io.Cost()
			ep.Lookups += float64(io.Lookups)
			ep.Results += float64(nres)
			runs++
		}
		if runs > 0 {
			for _, pt := range []*Point{&ep, &np} {
				pt.Millis /= float64(runs)
				pt.Cost /= float64(runs)
				pt.Lookups /= float64(runs)
				pt.Results /= float64(runs)
			}
		}
		planSeries.Points = append(planSeries.Points, pp)
		evalSeries.Points = append(evalSeries.Points, ep)
		netSeries.Points = append(netSeries.Points, np)
	}
	fig.Series = []Series{netSeries, planSeries, evalSeries}
	return fig, nil
}
