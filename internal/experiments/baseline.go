package experiments

import (
	"time"

	"repro/internal/banks"
	"repro/internal/core"
)

// FigBaseline quantifies the §2 comparison: a BANKS-style data-graph
// search against XKeyword's connection relations, top-10 answers to the
// same author-pair queries, as the dataset grows. The data-graph
// baseline must traverse the raw XML graph per query; XKeyword probes
// the precomputed relations. X is the dataset scale multiplier.
func FigBaseline(cfg Config, scales []int) (Figure, error) {
	cfg.defaults()
	if len(scales) == 0 {
		scales = []int{1, 2, 4}
	}
	fig := Figure{ID: "baseline", Title: "data-graph baseline (BANKS-style) vs XKeyword, top-10", XLabel: "scale"}
	bk := Series{Label: "banks (data graph)"}
	xk := Series{Label: "xkeyword (relations)"}
	for _, scale := range scales {
		p := cfg.DBLP
		p.PapersPerYear *= scale
		p.Authors *= scale
		wcfg := cfg
		wcfg.DBLP = p
		w, err := NewWorkload(wcfg)
		if err != nil {
			return fig, err
		}
		sys, err := w.load(core.PresetXKeyword)
		if err != nil {
			return fig, err
		}
		searcher := banks.NewSearcher(w.DS.Data)

		var bp, xp Point
		bp.X, xp.X = scale, scale
		runs := 0
		for _, pair := range w.Pairs {
			t0 := time.Now()
			trees, err := searcher.Search(pair[:], banks.Options{MaxScore: cfg.Z, K: 10})
			if err != nil {
				return fig, err
			}
			bp.Millis += float64(time.Since(t0).Microseconds()) / 1000
			bp.Results += float64(len(trees))

			// Warm the CN memo outside the measurement, as the paper's
			// system would have generated CNs for the schema already.
			if _, err := sys.Plans(pair[:]); err != nil {
				return fig, err
			}
			nres := 0
			dur, io := measure(sys.Store, func() {
				rs, err := sys.Query(pair[:], 10)
				if err == nil {
					nres = len(rs)
				}
			})
			xp.Millis += float64(dur.Microseconds()) / 1000
			xp.Cost += io.Cost()
			xp.Lookups += float64(io.Lookups)
			xp.Results += float64(nres)
			runs++
		}
		if runs > 0 {
			for _, pt := range []*Point{&bp, &xp} {
				pt.Millis /= float64(runs)
				pt.Cost /= float64(runs)
				pt.Lookups /= float64(runs)
				pt.Results /= float64(runs)
			}
		}
		bk.Points = append(bk.Points, bp)
		xk.Points = append(xk.Points, xp)
	}
	fig.Series = []Series{bk, xk}
	return fig, nil
}
