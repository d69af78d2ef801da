package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1) by linear interpolation
// between closest ranks; xs need not be sorted. It returns 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond returns how many of n samples lie strictly above the p-quantile
// rank: the samples a tail percentile rests on.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// minBeyond is how many samples the reported 90th percentile must rest on.
const minBeyond = 10
