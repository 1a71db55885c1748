package cluster

import (
	"math"
	"testing"

	"hmeans/internal/vecmath"
)

func threeBlobs() []vecmath.Vector {
	return []vecmath.Vector{
		{0, 0}, {0.2, 0.1}, {0.1, 0.3},
		{10, 0}, {10.3, 0.2},
		{5, 9}, {5.2, 9.1}, {4.8, 8.9},
	}
}

func TestDaviesBouldinPrefersTrueK(t *testing.T) {
	pts := threeBlobs()
	d, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var db3, db2 float64
	a3, _ := d.CutK(3)
	if db3, err = DaviesBouldin(pts, a3); err != nil {
		t.Fatal(err)
	}
	a2, _ := d.CutK(2)
	if db2, err = DaviesBouldin(pts, a2); err != nil {
		t.Fatal(err)
	}
	if db3 >= db2 {
		t.Fatalf("DB(3)=%v should beat DB(2)=%v on three blobs", db3, db2)
	}
}

func TestDaviesBouldinErrors(t *testing.T) {
	pts := threeBlobs()
	if _, err := DaviesBouldin(pts, Assignment{Labels: []int{0}, K: 1}); err == nil {
		t.Error("length mismatch accepted")
	}
	one := Assignment{Labels: make([]int, len(pts)), K: 1}
	if _, err := DaviesBouldin(pts, one); err == nil {
		t.Error("K=1 accepted")
	}
}

func TestDaviesBouldinCoincidentCentroids(t *testing.T) {
	// Two clusters with identical centroids → infinite index.
	pts := []vecmath.Vector{{0, 0}, {2, 2}, {1, 1}, {1.0001, 1.0001}}
	a := Assignment{Labels: []int{0, 0, 1, 1}, K: 2}
	// Centroid of cluster 0 = (1,1), cluster 1 ≈ (1,1): near-zero
	// separation should blow the index up.
	db, err := DaviesBouldin(pts, a)
	if err != nil {
		t.Fatal(err)
	}
	if db < 100 {
		t.Fatalf("DB = %v, want very large for coincident centroids", db)
	}
}

func TestQualitySweepAndRecommendK(t *testing.T) {
	pts := threeBlobs()
	d, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := d.QualitySweep(pts, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 5 {
		t.Fatalf("sweep length %d, want 5", len(sweep))
	}
	k, err := RecommendK(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Fatalf("RecommendK = %d, want 3 (true blob count)", k)
	}
	// Merge-gap sanity: the gap at the true k must be positive.
	for _, q := range sweep {
		if q.K == 3 && q.MergeGap <= 0 {
			t.Fatalf("merge gap at true k = %v", q.MergeGap)
		}
		if q.Silhouette < -1 || q.Silhouette > 1 {
			t.Fatalf("silhouette out of range: %v", q.Silhouette)
		}
		if q.DaviesBouldin < 0 && !math.IsInf(q.DaviesBouldin, 1) {
			t.Fatalf("negative DB: %v", q.DaviesBouldin)
		}
	}
}

func TestQualitySweepErrors(t *testing.T) {
	pts := threeBlobs()
	d, _ := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
	if _, err := d.QualitySweep(pts[:3], 2, 4); err == nil {
		t.Error("mismatched points accepted")
	}
	if _, err := d.QualitySweep(pts, 9, 12); err == nil {
		t.Error("out-of-range sweep accepted")
	}
}

func TestRecommendKEmpty(t *testing.T) {
	if _, err := RecommendK(nil); err == nil {
		t.Error("empty sweep accepted")
	}
}
