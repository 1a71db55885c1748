package cluster

import (
	"context"
	"math"
	"testing"

	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

// TestMergeUpdateAllocationFree pins one merge step — the pick, the
// Lance–Williams walk and the cached-minimum upkeep — at zero heap
// allocations for every linkage. 101 measured merges leave most of
// the 256 slots active.
func TestMergeUpdateAllocationFree(t *testing.T) {
	pts := randomPoints(256, 3, 12)
	for _, l := range allLinkages {
		w, err := vecmath.CondensedDistanceMatrixCtx(context.Background(), vecmath.Euclidean, pts)
		if err != nil {
			t.Fatal(err)
		}
		g := newAgglomeration(w)
		if avg := testing.AllocsPerRun(100, func() {
			lo := g.closest()
			g.merge(l, lo, g.nbr[lo])
		}); avg != 0 {
			t.Errorf("%v merge: %v allocs/op, want 0", l, avg)
		}
	}
}

// referenceKMeansOnce is the pre-refactor Lloyd iteration, kept here
// verbatim as the oracle: per-iteration accumulator allocation and
// the allocating Scale centroid update.
func referenceKMeansOnce(points []vecmath.Vector, k int, r *rng.Source) KMeansResult {
	centroids := seedPlusPlus(points, k, r)
	labels := make([]int, len(points))
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
		counts := make([]int, k)
		sums := make([]vecmath.Vector, k)
		for c := range sums {
			sums[c] = vecmath.NewVector(len(points[0]))
		}
		for i, p := range points {
			counts[labels[i]]++
			sums[labels[i]].AXPYInPlace(1, p)
		}
		for c := range centroids {
			if counts[c] > 0 {
				centroids[c] = sums[c].Scale(1 / float64(counts[c]))
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

// TestKMeansInPlaceCentroidsIdentical proves the in-place centroid
// update (flat accumulator arena, AddInPlace, copy+ScaleInPlace)
// reproduces the allocating implementation bit for bit: same
// centroids, labels, inertia and iteration count for every seed
// tried.
func TestKMeansInPlaceCentroidsIdentical(t *testing.T) {
	for _, n := range []int{13, 120} {
		pts := randomPoints(n, 4, uint64(n))
		for seed := uint64(1); seed <= 5; seed++ {
			got := kmeansOnce(pts, 5, rng.New(seed))
			want := referenceKMeansOnce(pts, 5, rng.New(seed))
			if got.Iterations != want.Iterations {
				t.Fatalf("n=%d seed=%d: iterations %d != %d", n, seed, got.Iterations, want.Iterations)
			}
			if got.Inertia != want.Inertia {
				t.Fatalf("n=%d seed=%d: inertia %v != %v", n, seed, got.Inertia, want.Inertia)
			}
			for c := range want.Centroids {
				for j := range want.Centroids[c] {
					if got.Centroids[c][j] != want.Centroids[c][j] {
						t.Fatalf("n=%d seed=%d: centroid %d[%d] %v != %v",
							n, seed, c, j, got.Centroids[c][j], want.Centroids[c][j])
					}
				}
			}
			for i := range want.Assignment.Labels {
				if got.Assignment.Labels[i] != want.Assignment.Labels[i] {
					t.Fatalf("n=%d seed=%d: label %d differs", n, seed, i)
				}
			}
		}
	}
}
