package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the value is one or two outliers, not a rate.
const minBeyond = 10

// tailLevels are the percentiles the harness reports, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.90, 0.50}

// highestPercentile returns the highest of tailLevels that n samples
// support with at least minBeyond samples beyond it. ok is false when
// even the median has fewer.
func highestPercentile(n int) (q float64, ok bool) {
	for _, q := range tailLevels {
		if supported(n, q) {
			return q, true
		}
	}
	return 0, false
}

// supported reports whether n samples leave at least minBeyond beyond q.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// quantile returns the nearest-rank q-quantile of xs (0 for none). It
// sorts a copy, so callers may keep appending to xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, and 0 when b is 0: a layer a workload never reaches
// reports 0, not NaN, because the result line must be valid JSON.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
