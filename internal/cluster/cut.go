package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrDegenerateCut marks a cut or quality request the dendrogram
// cannot satisfy: a cluster count outside [1, n], an empty sweep
// range, or a diagnostic that needs at least two clusters. Check with
// errors.Is(err, ErrDegenerateCut); the concrete *CutError carries
// the offending request.
var ErrDegenerateCut = errors.New("cluster: degenerate cut")

// CutError details a degenerate cut request.
type CutError struct {
	// K is the requested cluster count (0 when no single k applies).
	K int
	// N is the dendrogram's leaf count.
	N int
	// Reason says what made the request unsatisfiable.
	Reason string
}

// Error formats the request and the reason it is unsatisfiable.
func (e *CutError) Error() string {
	return fmt.Sprintf("cluster: degenerate cut (k=%d, n=%d): %s", e.K, e.N, e.Reason)
}

// Unwrap ties every CutError to the ErrDegenerateCut sentinel.
func (e *CutError) Unwrap() error { return ErrDegenerateCut }

// DataError classifies the error as an input problem rather than an
// internal failure; internal/cliutil maps it to the data exit code.
func (e *CutError) DataError() bool { return true }

// Assignment maps each leaf index to a cluster label in [0, k). The
// labels are canonicalized: cluster 0 is the one containing the
// lowest leaf index, cluster 1 the one containing the lowest leaf not
// in cluster 0, and so on, which makes assignments comparable across
// runs.
type Assignment struct {
	Labels []int
	K      int
}

// Members returns the leaf indices of each cluster, indexed by label.
func (a Assignment) Members() [][]int {
	out := make([][]int, a.K)
	for leaf, label := range a.Labels {
		out[label] = append(out[label], leaf)
	}
	return out
}

// Sizes returns the number of leaves per cluster label.
func (a Assignment) Sizes() []int {
	out := make([]int, a.K)
	for _, label := range a.Labels {
		out[label]++
	}
	return out
}

// CutK cuts the dendrogram so that exactly k clusters remain: the
// last k−1 merges are undone. k must lie in [1, n].
func (d *Dendrogram) CutK(k int) (Assignment, error) {
	if k < 1 || k > d.n {
		return Assignment{}, &CutError{K: k, N: d.n, Reason: "cluster count outside [1, n]"}
	}
	return d.assignment(d.n - k), nil
}

// CutDistance cuts the dendrogram at the given merging distance:
// every merge with Distance <= maxDist is applied, matching the
// paper's reading of the dendrogram ("workloads that locate closer to
// each other than the merging distance form a cluster").
func (d *Dendrogram) CutDistance(maxDist float64) Assignment {
	applied := 0
	for _, m := range d.merges {
		if m.Distance <= maxDist {
			applied++
		}
	}
	// Merge heights are non-decreasing for the metric linkages, so
	// the first `applied` merges are exactly those below the cut.
	return d.assignment(applied)
}

// assignment applies the first `applied` merges and labels the
// resulting clusters canonically.
func (d *Dendrogram) assignment(applied int) Assignment {
	parent := make([]int, d.n+applied)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for s := 0; s < applied; s++ {
		m := d.merges[s]
		created := d.n + s
		parent[find(m.A)] = created
		parent[find(m.B)] = created
	}
	labels := make([]int, d.n)
	rootLabel := map[int]int{}
	next := 0
	for leaf := 0; leaf < d.n; leaf++ {
		root := find(leaf)
		l, ok := rootLabel[root]
		if !ok {
			l = next
			rootLabel[root] = l
			next++
		}
		labels[leaf] = l
	}
	return Assignment{Labels: labels, K: next}
}

// KAtDistance returns how many clusters a cut at maxDist produces.
func (d *Dendrogram) KAtDistance(maxDist float64) int {
	return d.CutDistance(maxDist).K
}

// DistanceForK returns a merging distance whose cut yields exactly k
// clusters, specifically the midpoint of the k-cluster plateau of the
// dendrogram, along with the plateau bounds [lo, hi). When several
// merges share a height the plateau can be empty for some k; ok is
// false in that case (that k is unachievable by a horizontal cut).
func (d *Dendrogram) DistanceForK(k int) (dist, lo, hi float64, ok bool) {
	if k < 1 || k > d.n {
		return 0, 0, 0, false
	}
	heights := d.MergeDistances()
	sort.Float64s(heights)
	return plateau(heights, k)
}

// plateau is DistanceForK over the dendrogram's merge heights sorted
// ascending, for 1 <= k <= n. Sweeps sort the heights once and call it
// per k.
func plateau(heights []float64, k int) (dist, lo, hi float64, ok bool) {
	n := len(heights) + 1
	// Cutting strictly below heights[n-k] but at/above heights[n-k-1]
	// yields k clusters.
	if k == n {
		if len(heights) == 0 {
			return 0, 0, 0, true
		}
		return heights[0] / 2, 0, heights[0], heights[0] > 0
	}
	if k == 1 {
		// Everything merges at or above the final height; any cut at
		// or beyond it yields one cluster.
		top := heights[len(heights)-1]
		return top, top, math.Inf(1), true
	}
	hiIdx := len(heights) - k + 1 // first merge NOT applied
	lo = heights[hiIdx-1]
	hi = heights[hiIdx]
	if hi <= lo {
		return 0, lo, hi, false
	}
	return (lo + hi) / 2, lo, hi, true
}
