package cluster

import (
	"errors"
	"fmt"
	"math"

	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

// KMeansResult is a flat clustering produced by Lloyd's algorithm.
type KMeansResult struct {
	// Assignment labels each point, canonicalized like dendrogram
	// cuts (cluster 0 contains the lowest point index).
	Assignment Assignment
	// Centroids holds the final cluster centres, indexed by label.
	Centroids []vecmath.Vector
	// Inertia is the total within-cluster sum of squared distances.
	Inertia float64
	// Iterations is how many Lloyd iterations ran before
	// convergence.
	Iterations int
}

// KMeans clusters points into k clusters with Lloyd's algorithm and
// k-means++ seeding. It is the flat-clustering baseline the
// benchmark-subsetting literature the paper cites ([10], [11]) builds
// on, provided for comparison against the dendrogram cuts.
//
// The seed makes the (stochastic) initialization reproducible. The
// algorithm restarts from scratch up to `restarts` times (minimum 1)
// and keeps the lowest-inertia result.
func KMeans(points []vecmath.Vector, k int, seed uint64, restarts int) (KMeansResult, error) {
	if len(points) == 0 {
		return KMeansResult{}, ErrNoPoints
	}
	if k < 1 || k > len(points) {
		return KMeansResult{}, fmt.Errorf("cluster: cannot k-means %d points into %d clusters", len(points), k)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return KMeansResult{}, fmt.Errorf("cluster: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	if restarts < 1 {
		restarts = 1
	}
	r := rng.New(seed)
	best := KMeansResult{Inertia: math.Inf(1)}
	for attempt := 0; attempt < restarts; attempt++ {
		res := kmeansOnce(points, k, r)
		if res.Inertia < best.Inertia {
			best = res
		}
	}
	best.Assignment = canonicalize(best.Assignment)
	return best, nil
}

func kmeansOnce(points []vecmath.Vector, k int, r *rng.Source) KMeansResult {
	centroids := seedPlusPlus(points, k, r)
	labels := make([]int, len(points))
	dim := len(points[0])
	// The centroid-update accumulators are allocated once (the sum
	// vectors as views into one flat arena) and zeroed per iteration,
	// so a Lloyd iteration allocates nothing.
	counts := make([]int, k)
	sums := make([]vecmath.Vector, k)
	sumFlat := make([]float64, k*dim)
	for c := range sums {
		sums[c] = vecmath.Vector(sumFlat[c*dim : (c+1)*dim : (c+1)*dim])
	}
	const maxIter = 200
	var iter int
	for iter = 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			bestLabel, bestDist := 0, math.Inf(1)
			for c, ct := range centroids {
				if d := vecmath.SquaredEuclidean(p, ct); d < bestDist {
					bestLabel, bestDist = c, d
				}
			}
			if labels[i] != bestLabel {
				labels[i] = bestLabel
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids; an emptied cluster keeps its old
		// centre (it can win points back next round).
		for c := range counts {
			counts[c] = 0
		}
		for i := range sumFlat {
			sumFlat[i] = 0
		}
		for i, p := range points {
			counts[labels[i]]++
			sums[labels[i]].AddInPlace(p)
		}
		// copy+ScaleInPlace writes c·sum[j] element-wise — the same
		// expression the allocating Scale computed — into the
		// centroid's existing storage (always a private clone from
		// seedPlusPlus, never an input point).
		for c := range centroids {
			if counts[c] > 0 {
				copy(centroids[c], sums[c])
				centroids[c].ScaleInPlace(1 / float64(counts[c]))
			}
		}
	}
	inertia := 0.0
	for i, p := range points {
		inertia += vecmath.SquaredEuclidean(p, centroids[labels[i]])
	}
	return KMeansResult{
		Assignment: Assignment{Labels: labels, K: k},
		Centroids:  centroids,
		Inertia:    inertia,
		Iterations: iter,
	}
}

// seedPlusPlus picks initial centroids with the k-means++ rule:
// first uniformly, then proportional to squared distance from the
// nearest chosen centre.
func seedPlusPlus(points []vecmath.Vector, k int, r *rng.Source) []vecmath.Vector {
	centroids := make([]vecmath.Vector, 0, k)
	centroids = append(centroids, points[r.Intn(len(points))].Clone())
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		total := 0.0
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := vecmath.SquaredEuclidean(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All remaining points coincide with centres; fill with
			// duplicates.
			centroids = append(centroids, points[r.Intn(len(points))].Clone())
			continue
		}
		target := r.Float64() * total
		acc := 0.0
		pick := len(points) - 1
		for i, d := range d2 {
			acc += d
			if acc >= target {
				pick = i
				break
			}
		}
		centroids = append(centroids, points[pick].Clone())
	}
	return centroids
}

// canonicalize relabels an assignment so cluster ids follow first
// appearance order, dropping empty clusters.
func canonicalize(a Assignment) Assignment {
	remap := map[int]int{}
	labels := make([]int, len(a.Labels))
	next := 0
	for i, l := range a.Labels {
		nl, ok := remap[l]
		if !ok {
			nl = next
			remap[l] = nl
			next++
		}
		labels[i] = nl
	}
	return Assignment{Labels: labels, K: next}
}

// AgreementRate returns the fraction of point pairs on which two
// assignments agree (same-cluster vs different-cluster) — the Rand
// index. It errors when the assignments have different lengths.
func AgreementRate(a, b Assignment) (float64, error) {
	n := len(a.Labels)
	if n != len(b.Labels) {
		return 0, errors.New("cluster: assignments have different lengths")
	}
	if n < 2 {
		return 1, nil
	}
	agree, pairs := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sameA := a.Labels[i] == a.Labels[j]
			sameB := b.Labels[i] == b.Labels[j]
			if sameA == sameB {
				agree++
			}
			pairs++
		}
	}
	return float64(agree) / float64(pairs), nil
}
