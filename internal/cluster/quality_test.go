package cluster

import (
	"testing"
	"testing/quick"

	"hmeans/internal/vecmath"
)

func TestSilhouetteWellSeparated(t *testing.T) {
	pts := []vecmath.Vector{{0}, {0.5}, {10}, {10.5}}
	dm := vecmath.DistanceMatrix(vecmath.Euclidean, pts)
	d, _ := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
	a, _ := d.CutK(2)
	s, err := Silhouette(dm, a)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.9 {
		t.Fatalf("silhouette of well-separated pairs = %v, want > 0.9", s)
	}
}

func TestSilhouetteBadSplitLower(t *testing.T) {
	pts := []vecmath.Vector{{0}, {0.5}, {10}, {10.5}}
	dm := vecmath.DistanceMatrix(vecmath.Euclidean, pts)
	good := Assignment{Labels: []int{0, 0, 1, 1}, K: 2}
	bad := Assignment{Labels: []int{0, 1, 0, 1}, K: 2}
	sg, err := Silhouette(dm, good)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Silhouette(dm, bad)
	if err != nil {
		t.Fatal(err)
	}
	if sb >= sg {
		t.Fatalf("bad split silhouette %v >= good split %v", sb, sg)
	}
}

func TestSilhouetteErrors(t *testing.T) {
	pts := []vecmath.Vector{{0}, {1}}
	dm := vecmath.DistanceMatrix(vecmath.Euclidean, pts)
	if _, err := Silhouette(dm, Assignment{Labels: []int{0, 0}, K: 1}); err == nil {
		t.Error("K=1 accepted")
	}
	if _, err := Silhouette(dm, Assignment{Labels: []int{0}, K: 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSilhouetteSingletonsContributeZero(t *testing.T) {
	pts := []vecmath.Vector{{0}, {1}, {2}}
	dm := vecmath.DistanceMatrix(vecmath.Euclidean, pts)
	a := Assignment{Labels: []int{0, 1, 2}, K: 3}
	s, err := Silhouette(dm, a)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Fatalf("all-singleton silhouette = %v, want 0", s)
	}
}

func TestCopheneticDistances(t *testing.T) {
	pts := []vecmath.Vector{{0}, {1}, {10}, {12}}
	d, _ := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
	coph := d.CopheneticDistances()
	// Pairs in order: (0,1)=1, (0,2)=12, (0,3)=12, (1,2)=12, (1,3)=12, (2,3)=2.
	want := []float64{1, 12, 12, 12, 12, 2}
	if len(coph) != len(want) {
		t.Fatalf("got %d cophenetic distances, want %d", len(coph), len(want))
	}
	for i := range want {
		if coph[i] != want[i] {
			t.Fatalf("cophenetic = %v, want %v", coph, want)
		}
	}
}

func TestCopheneticCorrelation(t *testing.T) {
	pts := []vecmath.Vector{{0}, {1}, {10}, {12}, {30}}
	dm := vecmath.DistanceMatrix(vecmath.Euclidean, pts)
	d, _ := NewDendrogramOpts(pts, vecmath.Euclidean, Average, Options{})
	c, err := d.CopheneticCorrelation(dm)
	if err != nil {
		t.Fatal(err)
	}
	if c < 0.9 || c > 1 {
		t.Fatalf("cophenetic correlation = %v, want high for clean hierarchy", c)
	}
	small := vecmath.DistanceMatrix(vecmath.Euclidean, pts[:3])
	if _, err := d.CopheneticCorrelation(small); err == nil {
		t.Error("mismatched matrix accepted")
	}
}

// Property: cophenetic distance is at least the single-linkage
// distance between any pair (first-joined height upper-bounds path
// nearness) — concretely, coph >= original distance for single
// linkage is NOT generally true, but coph must be one of the merge
// heights and non-negative. Check structural invariants instead.
func TestCopheneticStructural(t *testing.T) {
	f := func(seed uint64) bool {
		pts := randomPoints(int(seed%8)+3, 2, seed)
		d, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
		if err != nil {
			return false
		}
		heights := map[float64]bool{}
		for _, m := range d.Merges() {
			heights[m.Distance] = true
		}
		for _, c := range d.CopheneticDistances() {
			if c < 0 || !heights[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
