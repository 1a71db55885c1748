package vecmath

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceValues(t *testing.T) {
	if got := Euclidean.Kernel()(Vector{0, 0}, Vector{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Errorf("euclidean distance = %v, want 5", got)
	}
}

func TestSquaredEuclideanConsistent(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 6, 3}
	d := EuclideanDistance(v, w)
	if !almostEqual(d*d, SquaredEuclidean(v, w), 1e-12) {
		t.Error("EuclideanDistance² != SquaredEuclidean")
	}
}

func TestDistanceMatrixProperties(t *testing.T) {
	pts := []Vector{{0, 0}, {1, 0}, {0, 2}, {3, 3}}
	dm := DistanceMatrix(Euclidean, pts)
	n := len(pts)
	for i := 0; i < n; i++ {
		if dm.At(i, i) != 0 {
			t.Errorf("diagonal (%d,%d) = %v, want 0", i, i, dm.At(i, i))
		}
		for j := 0; j < n; j++ {
			if dm.At(i, j) != dm.At(j, i) {
				t.Errorf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
	if !almostEqual(dm.At(0, 1), 1, 1e-12) || !almostEqual(dm.At(0, 2), 2, 1e-12) {
		t.Errorf("wrong distances: %v, %v", dm.At(0, 1), dm.At(0, 2))
	}
}

// Property: metric axioms (symmetry, identity, triangle inequality).
func TestMetricAxioms(t *testing.T) {
	f := func(rawA, rawB, rawC []float64) bool {
		a := cleanVec(rawA, 4)
		b := cleanVec(rawB, 4)
		c := cleanVec(rawC, 4)
		dab := EuclideanDistance(a, b)
		dba := EuclideanDistance(b, a)
		dac := EuclideanDistance(a, c)
		dcb := EuclideanDistance(c, b)
		if !almostEqual(dab, dba, 1e-9) {
			return false
		}
		if EuclideanDistance(a, a) != 0 {
			return false
		}
		return dab <= dac+dcb+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: Euclidean distance is invariant under translation.
func TestEuclideanTranslationInvariance(t *testing.T) {
	f := func(rawA, rawB []float64, shiftRaw float64) bool {
		a := cleanVec(rawA, 4)
		b := cleanVec(rawB, 4)
		shift := math.Mod(shiftRaw, 100)
		if math.IsNaN(shift) {
			shift = 0
		}
		sv := Vector{shift, shift, shift, shift}
		return almostEqual(EuclideanDistance(a, b), EuclideanDistance(a.Add(sv), b.Add(sv)), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
