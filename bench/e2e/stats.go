package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tailSamples is how many samples must lie beyond a percentile before it
// is reported: with fewer, the figure is one or two outliers, not a tail.
const tailSamples = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of xs
// and whether the sample supports it, i.e. at least tailSamples values lie
// beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s)-rank >= tailSamples
}
