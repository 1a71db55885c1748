package vecmath

import (
	"context"
	"errors"
	"testing"
)

// condensedDistanceRowMajor is the retired row-major build, kept
// verbatim as the oracle the tiled build is proven bit-identical
// against.
func condensedDistanceRowMajor(m Metric, points []Vector) *CondensedMatrix {
	n := len(points)
	out := NewCondensedMatrix(n)
	kern := m.Kernel()
	for i := 0; i < n; i++ {
		row := out.RowTail(i)
		pi := points[i]
		for t := range row {
			row[t] = kern(pi, points[i+1+t])
		}
	}
	return out
}

// TestCondensedTiledMatchesRowMajor proves the tiled build is
// bit-identical to the retained row-major reference for sizes on both
// sides of the tile boundary — byte-for-byte,
// not approximately.
func TestCondensedTiledMatchesRowMajor(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, condensedTile - 1, condensedTile, condensedTile + 1, 300} {
		pts := condensedTestPoints(n, 6, uint64(n)+11)
		want := condensedDistanceRowMajor(Euclidean, pts)
		got, err := CondensedDistanceMatrixCtx(context.Background(), Euclidean, pts)
		if err != nil {
			t.Fatal(err)
		}
		if got.N() != want.N() {
			t.Fatalf("n=%d: N=%d, want %d", n, got.N(), want.N())
		}
		for s, v := range got.Data() {
			if v != want.Data()[s] {
				t.Fatalf("n=%d: slot %d = %v, want %v (not bit-identical)",
					n, s, v, want.Data()[s])
			}
		}
	}
}

// TestCondensedDistanceMatrixCancelled: the build checks its context
// before every tile pair, so a context cancelled before the call
// returns the context's error and no matrix, whether the points fill
// one tile or span several.
func TestCondensedDistanceMatrixCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{2, condensedTile + 1, 3 * condensedTile} {
		cm, err := CondensedDistanceMatrixCtx(ctx, Euclidean, condensedTestPoints(n, 3, 5))
		if !errors.Is(err, context.Canceled) || cm != nil {
			t.Fatalf("n=%d: matrix %v, error %v; want nil and context.Canceled", n, cm, err)
		}
	}
}
