package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of sorted: the smallest sample such that at least p% of all samples
// are at or below it. sorted must be in ascending order and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n
// samples. The slack absorbs the representation error of p (99.9% of
// 10000 is rank 9990, not 9991).
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - rankSlack))
	return max(1, min(n, r))
}

const rankSlack = 1e-9

// beyond counts the samples ranked above the p-th percentile: how many
// samples a tail figure at p rests on.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// tailLadder is the set of tail percentiles the report picks from.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// highestTail returns the highest percentile of tailLadder that has at
// least minBeyond samples above it, or 0 when none has.
func highestTail(n, minBeyond int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// millis converts durations to sorted milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median returns the nearest-rank median of xs (any order); 0 when xs
// is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}
