package cluster

import (
	"math"
	"reflect"
	"testing"

	"hmeans/internal/vecmath"
)

// tieHeavyPoints builds a point set with duplicated points and a
// coarse coordinate lattice, so many pairwise distances collide
// exactly and the nearest-pair tie-break is genuinely exercised.
func tieHeavyPoints(n int, seed uint64) []vecmath.Vector {
	pts := randomPoints(n, 2, seed)
	for i := range pts {
		for j := range pts[i] {
			pts[i][j] = math.Round(pts[i][j] * 2)
		}
	}
	// Duplicate a few points outright: zero distances are the
	// hardest ties.
	for i := 0; i+3 < len(pts); i += 7 {
		pts[i+3] = pts[i].Clone()
	}
	return pts
}

// TestDendrogramParallelDeterminism asserts the core guarantee of the
// sharded distance build and validation pass: for every linkage, seed
// and worker count the merge sequence — ids, sizes and float64-exact
// heights — matches the serial path, on both the scan (60 points) and
// the NN-chain (200 points).
func TestDendrogramParallelDeterminism(t *testing.T) {
	for _, l := range []Linkage{Complete, Single, Average, Ward} {
		for _, n := range []int{60, 200} {
			for seed := uint64(1); seed <= 5; seed++ {
				pts := tieHeavyPoints(n, seed)
				serial, err := NewDendrogramOpts(pts, vecmath.Euclidean, l, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 8} {
					got, err := NewDendrogramOpts(pts, vecmath.Euclidean, l, Options{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(serial.Merges(), got.Merges()) {
						t.Fatalf("%v n %d seed %d workers %d: parallel merge sequence differs from serial",
							l, n, seed, workers)
					}
				}
			}
		}
	}
}

// TestFromCondensedParallelValidation keeps the sharded validation
// pass of the agglomeration core equivalent to the serial path.
func TestFromCondensedParallelValidation(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		if _, err := fromCondensed(condensedOf(3, -1, 0, 0), Complete, Options{Workers: workers}); err == nil {
			t.Fatalf("workers %d: negative distance accepted", workers)
		}
		if _, err := fromCondensed(condensedOf(2, math.NaN()), Average, Options{Workers: workers}); err == nil {
			t.Fatalf("workers %d: NaN distance accepted", workers)
		}
	}
}

// TestNewDendrogramPEmpty mirrors the serial empty-input contract with
// parallel workers.
func TestNewDendrogramPEmpty(t *testing.T) {
	if _, err := NewDendrogramOpts(nil, vecmath.Euclidean, Complete, Options{Workers: 4}); err != ErrNoPoints {
		t.Fatalf("err = %v, want ErrNoPoints", err)
	}
}
