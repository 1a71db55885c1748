package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"hmeans/internal/vecmath"
)

func blobs2(t *testing.T) []vecmath.Vector {
	t.Helper()
	return []vecmath.Vector{
		{0, 0}, {0.3, 0.1}, {0.1, 0.4},
		{10, 10}, {10.2, 9.8}, {9.9, 10.3},
	}
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	pts := blobs2(t)
	res, err := KMeans(pts, 2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 1, 1, 1}
	for i, w := range want {
		if res.Assignment.Labels[i] != w {
			t.Fatalf("labels = %v, want %v", res.Assignment.Labels, want)
		}
	}
	if res.Assignment.K != 2 || len(res.Centroids) != 2 {
		t.Fatalf("K=%d centroids=%d", res.Assignment.K, len(res.Centroids))
	}
	// Centroid of the first blob ≈ (0.13, 0.17).
	c0 := res.Centroids[res.Assignment.Labels[0]]
	if math.Abs(c0[0]-0.1333) > 0.01 {
		t.Fatalf("centroid = %v", c0)
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans(nil, 2, 1, 1); err == nil {
		t.Error("empty points accepted")
	}
	pts := blobs2(t)
	if _, err := KMeans(pts, 0, 1, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMeans(pts, 7, 1, 1); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := KMeans([]vecmath.Vector{{1}, {1, 2}}, 1, 1, 1); err == nil {
		t.Error("ragged points accepted")
	}
}

func TestKMeansDeterministicPerSeed(t *testing.T) {
	pts := blobs2(t)
	a, err := KMeans(pts, 2, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(pts, 2, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignment.Labels {
		if a.Assignment.Labels[i] != b.Assignment.Labels[i] {
			t.Fatal("k-means not deterministic per seed")
		}
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	pts := blobs2(t)
	res, err := KMeans(pts, len(pts), 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-12 {
		t.Fatalf("k=n inertia = %v, want ~0", res.Inertia)
	}
}

// Property: inertia never increases with k (given enough restarts on
// small instances).
func TestKMeansInertiaMonotoneInK(t *testing.T) {
	pts := blobs2(t)
	prev := math.Inf(1)
	for k := 1; k <= len(pts); k++ {
		res, err := KMeans(pts, k, 3, 8)
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev+1e-9 {
			t.Fatalf("inertia rose from %v to %v at k=%d", prev, res.Inertia, k)
		}
		prev = res.Inertia
	}
}

// Property: every k-means assignment is canonical and complete.
func TestKMeansAssignmentValid(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		pts := randomPoints(int(seed%10)+3, 2, seed^0x77)
		k := int(kRaw)%len(pts) + 1
		res, err := KMeans(pts, k, seed, 2)
		if err != nil {
			return false
		}
		if len(res.Assignment.Labels) != len(pts) {
			return false
		}
		seen := -1
		for _, l := range res.Assignment.Labels {
			if l < 0 || l >= res.Assignment.K {
				return false
			}
			if l > seen+1 {
				return false
			}
			if l == seen+1 {
				seen = l
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestAgreementRate(t *testing.T) {
	a := Assignment{Labels: []int{0, 0, 1, 1}, K: 2}
	same := Assignment{Labels: []int{1, 1, 0, 0}, K: 2} // relabelled
	r, err := AgreementRate(a, same)
	if err != nil || r != 1 {
		t.Fatalf("relabelled agreement = %v, %v; want 1", r, err)
	}
	diff := Assignment{Labels: []int{0, 1, 0, 1}, K: 2}
	r2, err := AgreementRate(a, diff)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs: (0,1)+ (2,3)+ same in a, split in diff; (0,2),(0,3),
	// (1,2),(1,3) split in a; (0,2),(1,3) same in diff. Agreement on
	// (0,1):no,(0,2):no,(0,3):yes,(1,2):yes,(1,3):no,(2,3):no = 2/6.
	if math.Abs(r2-2.0/6.0) > 1e-12 {
		t.Fatalf("agreement = %v, want 1/3", r2)
	}
	if _, err := AgreementRate(a, Assignment{Labels: []int{0}, K: 1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestKMeansMatchesHierarchicalOnCleanData(t *testing.T) {
	pts := blobs2(t)
	km, err := KMeans(pts, 2, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hc, err := d.CutK(2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := AgreementRate(km.Assignment, hc)
	if err != nil || r != 1 {
		t.Fatalf("k-means and complete linkage disagree on clean blobs: %v", r)
	}
}
