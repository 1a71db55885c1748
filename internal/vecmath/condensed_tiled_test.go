package vecmath

import "testing"

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
// bit-identical to the retained row-major reference for every metric,
// for sizes on both sides of the tile boundary, and for every worker
// count — byte-for-byte, not approximately.
func TestCondensedTiledMatchesRowMajor(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, condensedTile - 1, condensedTile, condensedTile + 1, 300} {
		pts := condensedTestPoints(n, 6, uint64(n)+11)
		for _, m := range []Metric{Euclidean, Manhattan, Chebyshev, Cosine} {
			want := condensedDistanceRowMajor(m, pts)
			for _, workers := range []int{1, 2, 8} {
				got := CondensedDistanceMatrixP(m, pts, workers)
				if got.N() != want.N() {
					t.Fatalf("n=%d %v workers=%d: N=%d, want %d", n, m, workers, got.N(), want.N())
				}
				for s, v := range got.Data() {
					if v != want.Data()[s] {
						t.Fatalf("n=%d %v workers=%d: slot %d = %v, want %v (not bit-identical)",
							n, m, workers, s, v, want.Data()[s])
					}
				}
			}
		}
	}
}
