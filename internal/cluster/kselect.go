package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"hmeans/internal/vecmath"
)

// DaviesBouldin returns the Davies–Bouldin index of an assignment
// over the points: the mean, over clusters, of the worst ratio
// (s_i + s_j) / d(c_i, c_j), where s is mean within-cluster distance
// to the centroid and d is centroid separation. Lower is better.
// Singleton clusters have s = 0. It requires at least 2 clusters.
func DaviesBouldin(points []vecmath.Vector, a Assignment) (float64, error) {
	if len(points) != len(a.Labels) {
		return 0, errors.New("cluster: assignment length does not match points")
	}
	if a.K < 2 {
		return 0, &CutError{K: a.K, N: len(points), Reason: "Davies-Bouldin needs at least 2 clusters"}
	}
	dim := len(points[0])
	centroids := make([]vecmath.Vector, a.K)
	counts := make([]int, a.K)
	for c := range centroids {
		centroids[c] = vecmath.NewVector(dim)
	}
	for i, p := range points {
		centroids[a.Labels[i]].AXPYInPlace(1, p)
		counts[a.Labels[i]]++
	}
	for c := range centroids {
		if counts[c] == 0 {
			return 0, errors.New("cluster: empty cluster")
		}
		centroids[c] = centroids[c].Scale(1 / float64(counts[c]))
	}
	scatter := make([]float64, a.K)
	for i, p := range points {
		scatter[a.Labels[i]] += vecmath.EuclideanDistance(p, centroids[a.Labels[i]])
	}
	for c := range scatter {
		scatter[c] /= float64(counts[c])
	}
	sum := 0.0
	for i := 0; i < a.K; i++ {
		worst := 0.0
		for j := 0; j < a.K; j++ {
			if i == j {
				continue
			}
			sep := vecmath.EuclideanDistance(centroids[i], centroids[j])
			if sep == 0 {
				// Coincident centroids: infinitely bad split.
				worst = math.Inf(1)
				continue
			}
			if r := (scatter[i] + scatter[j]) / sep; r > worst {
				worst = r
			}
		}
		sum += worst
	}
	return sum / float64(a.K), nil
}

// KQuality bundles the cluster-count diagnostics for one cut.
type KQuality struct {
	K             int
	Silhouette    float64
	DaviesBouldin float64
	// MergeGap is the gap between the merging distance that creates
	// this cut and the next merge — a wide plateau marks a "natural"
	// cluster count on the dendrogram, the signal the paper reads
	// off its figures by eye.
	MergeGap float64
}

// QualitySweep evaluates every cut in [kMin, kMax], clamped to
// [2, n], with silhouette, Davies–Bouldin and the dendrogram
// merge-gap. Points must be the same ones the dendrogram was built
// from. It walks the cuts top-down once (EachCut's walk) and repairs
// the two indices at each split instead of re-scoring every cut; the
// values equal Silhouette and DaviesBouldin on CutK(k) bit for bit
// (DESIGN.md §18). An empty clamped range is a typed
// ErrDegenerateCut, and so are points at a NaN distance, which no
// dendrogram can have been built from.
func (d *Dendrogram) QualitySweep(points []vecmath.Vector, kMin, kMax int) ([]KQuality, error) {
	if len(points) != d.n {
		return nil, errors.New("cluster: points do not match dendrogram")
	}
	lo, hi := max(kMin, 2), min(kMax, d.n)
	if lo > hi {
		return nil, &CutError{N: d.n, Reason: fmt.Sprintf("no valid cluster count in quality sweep [%d, %d]", kMin, kMax)}
	}
	q, err := newQualityWalk(d, points, lo)
	if err != nil {
		return nil, err
	}
	heights := d.MergeDistances()
	sort.Float64s(heights)
	out := make([]KQuality, 0, hi-lo+1)
	for {
		k := q.w.k
		out = append(out, KQuality{K: k, Silhouette: q.silhouette(), DaviesBouldin: q.daviesBouldin(), MergeGap: mergeGap(heights, k)})
		if k == hi {
			return out, nil
		}
		q.split()
	}
}

// mergeGap is the width of the k-cluster plateau of the sorted merge
// heights, 0 when no horizontal cut yields k clusters.
func mergeGap(heights []float64, k int) float64 {
	_, lo, hi, ok := plateau(heights, k)
	switch {
	case !ok:
		return 0
	case math.IsInf(hi, 1):
		return math.Inf(1)
	default:
		return hi - lo
	}
}

// qualityWalk carries the state the silhouette and the Davies–Bouldin
// index of a cut are read from, and repairs it when the cut walk
// splits a cluster. Only the split cluster's two children are new;
// every other cluster, and so every other per-cluster value, is
// unchanged, and each value is computed in the order its pointwise
// definition computes it.
type qualityWalk struct {
	w      *cutWalk
	points []vecmath.Vector
	dm     *vecmath.Matrix
	// sum[id][i] adds the distances from point i to active cluster
	// id's members in ascending member order, the order Silhouette's
	// label scan adds them in; i's own term is +0 and changes no bits.
	// A singleton's row is its distance-matrix row. Larger clusters
	// own a row, recycled through free when they split.
	sum  [][]float64
	free [][]float64
	// near[i] is the smallest mean distance from point i to a cluster
	// other than its own, and nearID[i] a cluster attaining it.
	near   []float64
	nearID []int
	// centroid holds dim coordinates per node id; scatter[id] is
	// cluster id's mean distance to its centroid, both computed once
	// when the cluster appears. worst[id] is the cluster's largest
	// Davies–Bouldin ratio to another cluster, worstID[id] a cluster
	// attaining it (-1 while no ratio exceeds 0).
	dim      int
	centroid []float64
	scatter  []float64
	worst    []float64
	worstID  []int
}

// newQualityWalk positions the walk at the cut into k >= 2 clusters
// and computes every value of that cut directly, one matrix row per
// point.
func newQualityWalk(d *Dendrogram, points []vecmath.Vector, k int) (*qualityWalk, error) {
	n := d.n
	dm := vecmath.DistanceMatrix(vecmath.Euclidean, points)
	// A NaN would make the pointwise minimum depend on cluster order;
	// NewDendrogramOpts rejects it, so reject it here too.
	for i := 0; i < n; i++ {
		for j, v := range dm.Row(i) {
			if math.IsNaN(v) {
				return nil, &CutError{K: k, N: n, Reason: fmt.Sprintf("quality sweep: NaN distance between points %d and %d", i, j)}
			}
		}
	}
	nodes := 2*n - 1
	dim := len(points[0])
	q := &qualityWalk{
		w:        d.newCutWalk(k),
		points:   points,
		dm:       dm,
		sum:      make([][]float64, nodes),
		near:     make([]float64, n),
		nearID:   make([]int, n),
		dim:      dim,
		centroid: make([]float64, nodes*dim),
		scatter:  make([]float64, nodes),
		worst:    make([]float64, nodes),
		worstID:  make([]int, nodes),
	}
	for _, c := range q.w.byLabel {
		q.appear(c)
	}
	for i := 0; i < n; i++ {
		if own := q.own(i); q.w.size[own] > 1 {
			q.rescanNear(i, own)
		}
	}
	for _, c := range q.w.byLabel {
		q.rescanWorst(c)
	}
	return q, nil
}

// own returns the node id of point i's cluster.
func (q *qualityWalk) own(i int) int { return q.w.byLabel[q.w.labels[i]] }

// appear computes a new cluster's distance sums, centroid and scatter.
func (q *qualityWalk) appear(c int) {
	members := q.w.members(c)
	if len(members) == 1 {
		q.sum[c] = q.dm.Row(members[0])
	} else {
		var row []float64
		if f := len(q.free); f > 0 {
			row = q.free[f-1]
			q.free = q.free[:f-1]
			clear(row)
		} else {
			row = make([]float64, len(q.points))
		}
		for _, j := range members {
			for i, v := range q.dm.Row(j) {
				row[i] += v
			}
		}
		q.sum[c] = row
	}
	cen := q.centroidOf(c)
	clear(cen)
	for _, j := range members {
		cen.AXPYInPlace(1, q.points[j])
	}
	cen.ScaleInPlace(1 / float64(len(members)))
	s := 0.0
	for _, j := range members {
		s += vecmath.EuclideanDistance(q.points[j], cen)
	}
	q.scatter[c] = s / float64(len(members))
}

func (q *qualityWalk) centroidOf(c int) vecmath.Vector {
	return vecmath.Vector(q.centroid[c*q.dim : (c+1)*q.dim])
}

// offerNear lowers point i's nearest-cluster mean to cluster c's.
func (q *qualityWalk) offerNear(i, c int) {
	if m := q.sum[c][i] / float64(q.w.size[c]); q.nearID[i] < 0 || m < q.near[i] {
		q.near[i], q.nearID[i] = m, c
	}
}

// rescanNear recomputes point i's nearest-cluster mean over every
// active cluster but its own.
func (q *qualityWalk) rescanNear(i, own int) {
	q.nearID[i] = -1
	for _, c := range q.w.byLabel {
		if c != own {
			q.offerNear(i, c)
		}
	}
}

// ratio is the Davies–Bouldin ratio of clusters a and b, +Inf when
// their centroids coincide.
func (q *qualityWalk) ratio(a, b int) float64 {
	sep := vecmath.EuclideanDistance(q.centroidOf(a), q.centroidOf(b))
	if sep == 0 {
		return math.Inf(1)
	}
	return (q.scatter[a] + q.scatter[b]) / sep
}

// raiseWorst lifts cluster a's worst ratio to r, a ratio against b.
// NaN never raises it, as in DaviesBouldin.
func (q *qualityWalk) raiseWorst(a, b int, r float64) {
	if r > q.worst[a] {
		q.worst[a], q.worstID[a] = r, b
	}
}

// rescanWorst recomputes cluster a's worst ratio over every other
// active cluster.
func (q *qualityWalk) rescanWorst(a int) {
	q.worst[a], q.worstID[a] = 0, -1
	for _, b := range q.w.byLabel {
		if b != a {
			q.raiseWorst(a, b, q.ratio(a, b))
		}
	}
}

// split steps the walk to the next k and repairs both indices. A
// minimum or maximum does not depend on the order of its inputs, so
// offering the children's values to a point or cluster whose extreme
// came from elsewhere is exact. One whose extreme came from the split
// cluster takes the children's extreme when it reaches the old one,
// since every other input was already on its far side; otherwise it
// rescans, because both children's rounded values can miss it.
func (q *qualityWalk) split() {
	c, a, b := q.w.split()
	// c was made by a merge, so it owned a row.
	q.free = append(q.free, q.sum[c])
	q.sum[c] = nil
	q.appear(a)
	q.appear(b)
	for i := range q.near {
		own := q.own(i)
		switch {
		case q.w.size[own] == 1:
			// A singleton contributes 0 at this and every later k.
		case own == a:
			q.offerNear(i, b)
		case own == b:
			q.offerNear(i, a)
		case q.nearID[i] == c:
			old := q.near[i]
			q.nearID[i] = -1
			q.offerNear(i, a)
			q.offerNear(i, b)
			if q.near[i] > old {
				q.rescanNear(i, own)
			}
		default:
			q.offerNear(i, a)
			q.offerNear(i, b)
		}
	}
	q.worst[a], q.worstID[a] = 0, -1
	q.worst[b], q.worstID[b] = 0, -1
	r := q.ratio(a, b)
	q.raiseWorst(a, b, r)
	q.raiseWorst(b, a, r)
	for _, x := range q.w.byLabel {
		if x == a || x == b {
			continue
		}
		ra, rb := q.ratio(x, a), q.ratio(x, b)
		q.raiseWorst(a, x, ra)
		q.raiseWorst(b, x, rb)
		old := q.worst[x]
		lost := q.worstID[x] == c
		if lost {
			q.worst[x], q.worstID[x] = 0, -1
		}
		q.raiseWorst(x, a, ra)
		q.raiseWorst(x, b, rb)
		if lost && q.worst[x] < old {
			q.rescanWorst(x)
		}
	}
}

// silhouette is Silhouette of the current cut: the same per-point
// terms, summed in point order.
func (q *qualityWalk) silhouette() float64 {
	total := 0.0
	for i, best := range q.near {
		own := q.own(i)
		size := q.w.size[own]
		if size == 1 {
			continue
		}
		a := q.sum[own][i] / float64(size-1)
		den := a
		if best > den {
			den = best
		}
		if den > 0 {
			total += (best - a) / den
		}
	}
	return total / float64(len(q.near))
}

// daviesBouldin is DaviesBouldin of the current cut: the clusters'
// worst ratios summed in label order.
func (q *qualityWalk) daviesBouldin() float64 {
	sum := 0.0
	for _, c := range q.w.byLabel {
		sum += q.worst[c]
	}
	return sum / float64(len(q.w.byLabel))
}

// RecommendK picks a cluster count from a quality sweep: the k with
// the best silhouette, with Davies–Bouldin as the tie-breaker. This
// mechanizes the judgment call the paper makes by inspecting the
// dendrogram and the score fluctuation ("we recommend the 6 clusters
// case as the norm since it aligns well with the SOM analysis
// results").
func RecommendK(sweep []KQuality) (int, error) {
	if len(sweep) == 0 {
		return 0, &CutError{Reason: "empty quality sweep"}
	}
	best := sweep[0]
	for _, q := range sweep[1:] {
		switch {
		case q.Silhouette > best.Silhouette+1e-12:
			best = q
		case math.Abs(q.Silhouette-best.Silhouette) <= 1e-12 && q.DaviesBouldin < best.DaviesBouldin:
			best = q
		}
	}
	return best.K, nil
}
