package vecmath

import (
	"context"
	"fmt"
)

// CondensedMatrix stores the strict upper triangle of an n×n
// symmetric matrix with a zero diagonal — the natural shape of a
// pairwise distance matrix — in one contiguous []float64 of n(n−1)/2
// entries. Pair (i, j) with i < j lives at offset
//
//	idx(i, j) = i·(2n−i−1)/2 + (j−i−1),
//
// so the entries of row i against all higher-indexed columns
// (i, i+1), (i, i+2), …, (i, n−1) are contiguous: nearest-pair scans
// walk a flat array front to back instead of chasing n row pointers,
// and the whole matrix costs half the memory of the dense form. Both
// halves of a symmetric pair share one slot, which is also what makes
// condensed storage safe for in-place Lance–Williams updates: writing
// d(a, k) can never leave a stale mirror entry behind.
type CondensedMatrix struct {
	n    int
	data []float64
}

// NewCondensedMatrix returns a zero condensed matrix representing an
// n×n symmetric matrix. It panics on non-positive n; n == 1 is legal
// and holds no entries.
func NewCondensedMatrix(n int) *CondensedMatrix {
	if n <= 0 {
		panic(fmt.Sprintf("vecmath: invalid condensed matrix size %d", n))
	}
	return &CondensedMatrix{n: n, data: make([]float64, n*(n-1)/2)}
}

// N returns the size of the represented square matrix.
func (c *CondensedMatrix) N() int { return c.n }

// Index returns the data offset of pair (i, j). The arguments commute;
// it panics on i == j (the diagonal is implicit) or out-of-range
// indices.
func (c *CondensedMatrix) Index(i, j int) int {
	if i > j {
		i, j = j, i
	}
	if i < 0 || j >= c.n || i == j {
		panic(fmt.Sprintf("vecmath: condensed index (%d,%d) invalid for n=%d", i, j, c.n))
	}
	return i*(2*c.n-i-1)/2 + (j - i - 1)
}

// At returns the (i, j) entry; the diagonal reads as 0.
func (c *CondensedMatrix) At(i, j int) float64 {
	if i == j {
		if i < 0 || i >= c.n {
			panic(fmt.Sprintf("vecmath: condensed index (%d,%d) invalid for n=%d", i, j, c.n))
		}
		return 0
	}
	return c.data[c.Index(i, j)]
}

// Set assigns the (i, j) entry (and, implicitly, its mirror). It
// panics on the diagonal.
func (c *CondensedMatrix) Set(i, j int, v float64) { c.data[c.Index(i, j)] = v }

// RowTail returns the contiguous slice of entries (i, i+1) … (i, n−1)
// — row i against every higher-indexed column. Entry t of the slice is
// the pair (i, i+1+t). The slice aliases the matrix storage.
func (c *CondensedMatrix) RowTail(i int) []float64 {
	start := c.Index0(i)
	return c.data[start : start+c.n-1-i]
}

// Index0 returns the offset of the first entry of row i's tail,
// idx(i, i+1); for i == n−1 it returns len(Data()) (an empty tail).
func (c *CondensedMatrix) Index0(i int) int {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("vecmath: condensed row %d invalid for n=%d", i, c.n))
	}
	return i * (2*c.n - i - 1) / 2
}

// Data returns the backing slice (shared, not a copy): all n(n−1)/2
// pair entries in row-major tail order.
func (c *CondensedMatrix) Data() []float64 { return c.data }

// condensedTile is the tile side (points per tile) of the blocked
// distance-matrix build. A row-major build walks each row's full tail,
// so by the time row i+1 starts, points[i+2:] have long been evicted;
// the tiled build instead computes all pairs between two blocks of
// condensedTile points before moving on, keeping both blocks hot. Two
// tiles of 128 points at a typical dim ≲ 16 are 128·16·8 B ≈ 16 KB
// each — comfortably co-resident in a 32 KB L1d with room for the
// output slots, and far under any L2. The output order per row tail is
// unchanged (slot (i, j) is written exactly once, by the tile pair
// owning it), so the build is bit-identical to the row-major one.
const condensedTile = 128

// CondensedDistanceMatrixP is CondensedDistanceMatrixCtx without
// cancellation; workers is ignored.
//
// Deprecated: the build runs on one goroutine. Use
// CondensedDistanceMatrixCtx. Kept only because perfbench/replay.go
// calls it; it goes with the next benchmark change.
func CondensedDistanceMatrixP(m Metric, points []Vector, workers int) *CondensedMatrix {
	out, _ := CondensedDistanceMatrixCtx(context.Background(), m, points)
	return out
}

// CondensedDistanceMatrixCtx returns the pairwise distances of points
// under metric m in condensed form. Each of the n(n−1)/2 pairs is
// computed exactly once, in cache-friendly (i, j)-tiles (see
// condensedTile), walking the tile pairs (a, b), a ≤ b, in row-major
// order. The context is checked before each tile pair; once it fires
// the partial matrix is discarded and the context's error returned.
func CondensedDistanceMatrixCtx(ctx context.Context, m Metric, points []Vector) (*CondensedMatrix, error) {
	n := len(points)
	out := NewCondensedMatrix(n)
	// Resolve the metric kernel once: the inner loop runs one indirect
	// call per pair instead of re-dispatching the metric switch.
	kern := m.Kernel()
	nt := (n + condensedTile - 1) / condensedTile
	for a := 0; a < nt; a++ {
		i1 := min(n, (a+1)*condensedTile)
		for b := a; b < nt; b++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			j0, j1 := b*condensedTile, min(n, (b+1)*condensedTile)
			for i := a * condensedTile; i < i1; i++ {
				js := j0
				if js <= i {
					js = i + 1
				}
				if js >= j1 {
					continue
				}
				// Row i's slots against columns [js, j1) are contiguous
				// in the row tail.
				base := out.Index0(i) - i - 1
				row := out.data[base+js : base+j1]
				pi := points[i]
				for t := range row {
					row[t] = kern(pi, points[js+t])
				}
			}
		}
	}
	return out, nil
}
