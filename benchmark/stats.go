package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of an ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// percentileLadder lists the percentiles a report may name.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// supportedPercentile returns the highest ladder percentile that has
// at least ten of n samples beyond it, or 0 when even the median does
// not.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		beyond := float64(n) * (100 - p) / 100
		if beyond >= 10-1e-9 {
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the exclusive method), so a
// spread computed here matches the one the driver computes. It needs
// at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
