// Package cluster implements agglomerative hierarchical clustering
// with selectable linkage, dendrogram construction, and the cut
// operations (by cluster count or by merging distance) the
// hierarchical means consume.
//
// The paper's configuration is complete linkage — cluster-to-cluster
// distance is the distance of the furthest pair of points,
// d(wᵢ, wⱼ) = max d(x, y) — over Euclidean point distance, applied to
// the 2-D SOM positions of the workloads. Single, average and Ward
// linkage are provided for the ablation benches.
package cluster

import (
	"fmt"

	"hmeans/internal/vecmath"
)

// Linkage selects the cluster-to-cluster distance definition.
type Linkage int

const (
	// Complete is the furthest-pair distance (the paper's choice).
	Complete Linkage = iota
	// Single is the nearest-pair distance.
	Single
	// Average is the unweighted mean pairwise distance (UPGMA).
	Average
	// Ward merges the pair minimizing the increase in total
	// within-cluster variance (implemented via the Lance–Williams
	// update on squared Euclidean distances).
	Ward
)

// String returns the linkage's name.
func (l Linkage) String() string {
	switch l {
	case Complete:
		return "complete"
	case Single:
		return "single"
	case Average:
		return "average"
	case Ward:
		return "ward"
	default:
		return "unknown"
	}
}

// update implements the Lance–Williams recurrence: the distance from
// the merger of clusters a (size na) and b (size nb) to another
// cluster c (size nc), given the pre-merge distances dac, dbc and dab.
func (l Linkage) update(dac, dbc, dab float64, na, nb, nc int) float64 {
	switch l {
	case Complete:
		if dac > dbc {
			return dac
		}
		return dbc
	case Single:
		if dac < dbc {
			return dac
		}
		return dbc
	case Average:
		fa := float64(na) / float64(na+nb)
		fb := float64(nb) / float64(na+nb)
		return fa*dac + fb*dbc
	case Ward:
		// Operates on squared distances; Dendrogram takes care of
		// squaring inputs and unsquaring merge heights.
		n := float64(na + nb + nc)
		return (float64(na+nc)*dac + float64(nb+nc)*dbc - float64(nc)*dab) / n
	default:
		panic(fmt.Sprintf("cluster: unknown linkage %d", int(l)))
	}
}

// mergeUpdateCondensed applies the Lance–Williams recurrence for the
// merge of slots a and b in place on a condensed working matrix: for
// every other active slot k, in ascending order, the distance
// d(a∪b, k) replaces slot (a, k). Because a condensed matrix stores
// one shared slot per symmetric pair, each write updates "both
// halves" at once and can never leave a stale mirror entry. The pass
// allocates nothing.
//
// The condensed addressing is done incrementally instead of through
// Index's per-slot multiply-and-bounds-check. The ascending-k walk
// splits into three ranges — below both merged slots, between them,
// above both — and in each range the offsets of pairs (k, a) and
// (k, b) move by a fixed stride per step: down a column by n−k−2,
// along a row tail by 1. The update calls, their arguments and their
// order are exactly those of the At/Set reference pass the tests keep
// (mergeUpdate), so the two are bit-identical.
func mergeUpdateCondensed(l Linkage, w *vecmath.CondensedMatrix, active []bool, size []int, a, b int) {
	data := w.Data()
	n := w.N()
	dab := w.At(a, b)
	na, nb := size[a], size[b]
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	aIsLo := a == lo
	apply := func(kLo, kHi, k int) {
		sa, sb := kLo, kHi
		if !aIsLo {
			sa, sb = kHi, kLo
		}
		data[sa] = l.update(data[sa], data[sb], dab, na, nb, size[k])
	}
	// k < lo: both pair slots walk down columns lo and hi of row k.
	kLo, kHi := lo-1, hi-1 // idx(0, lo), idx(0, hi)
	for k := 0; k < lo; k++ {
		if active[k] {
			apply(kLo, kHi, k)
		}
		kLo += n - k - 2
		kHi += n - k - 2
	}
	// lo < k < hi: (lo, k) runs along lo's row tail, (k, hi) keeps
	// walking down column hi.
	loBase := w.Index0(lo) - lo - 1 // idx(lo, k) = loBase + k
	if lo+1 < n {
		kHi = w.Index0(lo+1) + hi - lo - 2 // idx(lo+1, hi)
	}
	for k := lo + 1; k < hi; k++ {
		if active[k] {
			apply(loBase+k, kHi, k)
		}
		kHi += n - k - 2
	}
	// k > hi: both pair slots run along the row tails of lo and hi.
	hiBase := w.Index0(hi) - hi - 1
	for k := hi + 1; k < n; k++ {
		if active[k] {
			apply(loBase+k, hiBase+k, k)
		}
	}
}
