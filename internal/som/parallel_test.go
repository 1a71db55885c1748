package som

import (
	"math"
	"testing"
)

// equalMaps reports whether two maps hold bit-identical weights —
// Float64bits equality, not approximate comparison.
func equalMaps(t *testing.T, a, b *Map) bool {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.Dim() != b.Dim() {
		return false
	}
	for r := 0; r < a.Rows(); r++ {
		for c := 0; c < a.Cols(); c++ {
			wa, wb := a.Weight(r, c), b.Weight(r, c)
			for j := range wa {
				if math.Float64bits(wa[j]) != math.Float64bits(wb[j]) {
					return false
				}
			}
		}
	}
	return true
}

// TestSoftPlacementsParallelMatchSerial pins the bulk placement
// helpers to their serial outputs for every worker count.
func TestSoftPlacementsParallelMatchSerial(t *testing.T) {
	samples, _ := twoBlobs(20, 8, 6, 7)
	m, err := Train(Config{Rows: 6, Cols: 6, Steps: 3000, Seed: 7}, samples)
	if err != nil {
		t.Fatal(err)
	}
	serial := m.SoftPlacements(samples)
	for _, workers := range []int{2, 8} {
		got := m.SoftPlacementsP(samples, workers)
		for i := range got {
			for j := range got[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(serial[i][j]) {
					t.Fatalf("workers %d: soft placement %d = %v, serial %v", workers, i, got[i], serial[i])
				}
			}
		}
	}
}

// TestSequentialIgnoresParallelism: the on-line algorithm is
// order-dependent by definition; Parallelism must not change its
// result (it is documented as ignored).
func TestSequentialIgnoresParallelism(t *testing.T) {
	samples, _ := twoBlobs(10, 6, 5, 2)
	a, err := Train(Config{Rows: 5, Cols: 4, Steps: 3000, Seed: 4}, samples)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(Config{Rows: 5, Cols: 4, Steps: 3000, Seed: 4, Parallelism: 8}, samples)
	if err != nil {
		t.Fatal(err)
	}
	if !equalMaps(t, a, b) {
		t.Fatal("sequential training changed under Parallelism")
	}
}
