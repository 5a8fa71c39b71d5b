package main

import (
	"math"
	"sort"
)

// windows is the number of equal slices a measured phase is cut into.
// Every timing is computed per window and reported as the median of the
// window values, which discards the one or two windows a noisy neighbour
// or a GC cycle disturbed.
const windows = 8

// quantile returns the q-quantile (nearest rank) of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v (mean of the two middle values for even lengths).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// agg is a timing reported as the median over windows.
type agg struct {
	value   float64 // median of the per-window values
	spread  float64 // (max − min) / median over the windows
	samples int     // observations behind all windows together
}

func aggregate(perWindow []float64, samples int) agg {
	vals := perWindow[:0:0]
	for _, v := range perWindow {
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	a := agg{value: median(vals), samples: samples}
	if len(vals) > 0 && a.value != 0 {
		s := sortedCopy(vals)
		a.spread = (s[len(s)-1] - s[0]) / a.value
	}
	return a
}

// windowQuantile cuts samples (in arrival order) into `windows` equal
// runs and returns the aggregate of the per-window q-quantile.
func windowQuantile(samples []float64, q float64) agg {
	per := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		lo, hi := w*len(samples)/windows, (w+1)*len(samples)/windows
		if hi > lo {
			per = append(per, quantile(sortedCopy(samples[lo:hi]), q))
		}
	}
	return aggregate(per, len(samples))
}

// binomialBound returns the smallest c with P(X ≤ c) ≥ conf for
// X ~ Binomial(n, p): the most losses a run of n broadcasts may show
// before Eq. 1 (each reaches everyone with probability ≥ 1 − p) is
// rejected at that confidence.
func binomialBound(n int, p, conf float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	// Walk the pmf in log space: pmf(0) = (1-p)^n,
	// pmf(c+1) = pmf(c) · (n-c)/(c+1) · p/(1-p).
	logPmf := float64(n) * math.Log1p(-p)
	ratio := math.Log(p) - math.Log1p(-p)
	cdf := 0.0
	for c := 0; c <= n; c++ {
		cdf += math.Exp(logPmf)
		if cdf >= conf {
			return c
		}
		logPmf += math.Log(float64(n-c)) - math.Log(float64(c+1)) + ratio
	}
	return n
}
