package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := q * float64(len(s)-1)
	lo := int(idx)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := idx - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest percentile a sample of n supports under
// the rule "at least ten samples lie beyond it", capped at p99: p99 from
// 1,000 samples, p98 from 500. Below 20 samples no percentile qualifies
// and the maximum — the worst case seen — is all the sample can say
// about its tail.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 1
	}
	return math.Min(0.99, 1-10/float64(n))
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// geomean returns the geometric mean of the positive entries of xs
// (0 when there are none): the aggregate used across op kinds and grid
// points, so that no single large-latency point dominates the figure.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ratio is a/b, or 0 when b is 0 (a per-op rate with no ops).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
