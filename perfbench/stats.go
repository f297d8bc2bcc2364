package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile with fewer samples past it describes a handful of outliers,
// not the distribution.
const minTail = 10

// tailPercentile reports the q-quantile of samples (0 < q < 1), or, when
// fewer than minTail samples lie beyond it, the highest quantile that still
// has minTail samples beyond it. It returns the value, the quantile actually
// reported and the sample count. When even the median lacks minTail samples
// beyond it, no tail quantile qualifies and the maximum is reported with
// quantile 1, so the caller can say so. Samples may hold +Inf (failed
// operations); they sort last.
func tailPercentile(samples []float64, q float64) (value, used float64, n int) {
	n = len(samples)
	if n == 0 {
		return 0, 0, 0
	}
	s := sortedCopy(samples)
	// Nearest-rank index of q, capped so that minTail samples sit strictly
	// beyond it.
	i := int(math.Ceil(q*float64(n))) - 1
	if last := n - 1 - minTail; i > last {
		i = last
	}
	if i < (n-1)/2 {
		return s[n-1], 1, n
	}
	return s[i], float64(i+1) / float64(n), n
}

// median is the middle sample (mean of the middle two for even counts).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sortedCopy(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nlog10Geomean is -log10 of the geometric mean of probabilities, which is
// the mean of their -log10. Success estimates of compiled programs are as
// small as 1e-40, where the geometric mean itself doubles when the mean
// exponent moves by 0.3; the exponent is what can be compared run to run. A
// probability of 0 makes it +Inf.
func nlog10Geomean(ps []float64) float64 {
	if len(ps) == 0 {
		return 0
	}
	var sum float64
	for _, p := range ps {
		sum -= math.Log10(p)
	}
	return sum / float64(len(ps))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
