package main

import (
	"math"
	"sort"
)

// minAbove is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one or two outliers, not a
// percentile.
const minAbove = 10

// percentile returns the q-th quantile (0 < q < 1) of xs by the
// nearest-rank rule, and false when fewer than minAbove samples lie
// above that rank. xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1 // 0-based nearest rank
	if rank < 0 {
		rank = 0
	}
	if n-1-rank < minAbove {
		return 0, false
	}
	s := sortedCopy(xs)
	return s[rank], true
}

// median is the middle of xs (the mean of the middle pair for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
