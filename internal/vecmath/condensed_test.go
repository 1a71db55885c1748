package vecmath

import (
	"context"
	"testing"

	"hmeans/internal/rng"
)

func condensedTestPoints(n, dim int, seed uint64) []Vector {
	r := rng.New(seed)
	pts := make([]Vector, n)
	for i := range pts {
		pts[i] = NewVector(dim)
		for j := range pts[i] {
			pts[i][j] = r.NormFloat64()
		}
	}
	return pts
}

func TestCondensedIndexing(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16} {
		c := NewCondensedMatrix(n)
		if len(c.Data()) != n*(n-1)/2 {
			t.Fatalf("n=%d: %d entries, want %d", n, len(c.Data()), n*(n-1)/2)
		}
		// Offsets must enumerate the strict upper triangle row-major.
		want := 0
		for i := 0; i < n; i++ {
			if c.Index0(i) != want && i < n-1 {
				t.Fatalf("n=%d: Index0(%d) = %d, want %d", n, i, c.Index0(i), want)
			}
			for j := i + 1; j < n; j++ {
				if got := c.Index(i, j); got != want {
					t.Fatalf("n=%d: Index(%d,%d) = %d, want %d", n, i, j, got, want)
				}
				if got := c.Index(j, i); got != want {
					t.Fatalf("n=%d: Index(%d,%d) (swapped) = %d, want %d", n, j, i, got, want)
				}
				want++
			}
		}
	}
}

func TestCondensedAtSetDiagonalAndMirror(t *testing.T) {
	c := NewCondensedMatrix(5)
	c.Set(1, 3, 2.5)
	if c.At(1, 3) != 2.5 || c.At(3, 1) != 2.5 {
		t.Fatalf("mirror read failed: %v / %v", c.At(1, 3), c.At(3, 1))
	}
	c.Set(3, 1, 7.0) // writing the mirror hits the same slot
	if c.At(1, 3) != 7.0 {
		t.Fatalf("mirror write failed: %v", c.At(1, 3))
	}
	for i := 0; i < 5; i++ {
		if c.At(i, i) != 0 {
			t.Fatalf("diagonal At(%d,%d) = %v, want 0", i, i, c.At(i, i))
		}
	}
	tail := c.RowTail(1)
	if len(tail) != 3 {
		t.Fatalf("RowTail(1) length %d, want 3", len(tail))
	}
	tail[1] = 9.5 // entry t is pair (1, 1+1+t), so t=1 is (1, 3)
	if c.At(1, 3) != 9.5 {
		t.Fatal("RowTail does not alias the matrix storage")
	}
}

func TestCondensedPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewCondensedMatrix(0)", func() { NewCondensedMatrix(0) })
	c := NewCondensedMatrix(4)
	mustPanic("Index diagonal", func() { c.Index(2, 2) })
	mustPanic("Index out of range", func() { c.Index(0, 4) })
	mustPanic("At out of range diagonal", func() { c.At(5, 5) })
	mustPanic("Index0 out of range", func() { c.Index0(4) })
}

// TestCondensedDistanceMatrixMatchesDense proves the condensed build
// produces bit-identical distances to the dense build.
func TestCondensedDistanceMatrixMatchesDense(t *testing.T) {
	pts := condensedTestPoints(23, 4, 8)
	dense := DistanceMatrix(Euclidean, pts)
	cm, err := CondensedDistanceMatrixCtx(context.Background(), Euclidean, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if cm.At(i, j) != dense.At(i, j) {
				t.Fatalf("(%d,%d) %v != %v", i, j, cm.At(i, j), dense.At(i, j))
			}
		}
	}
}

// TestKernelMatchesDistance proves the hoisted kernel computes exactly
// what EuclideanDistance computes.
func TestKernelMatchesDistance(t *testing.T) {
	pts := condensedTestPoints(6, 5, 15)
	kern := Euclidean.Kernel()
	for i := range pts {
		for j := range pts {
			if got, want := kern(pts[i], pts[j]), EuclideanDistance(pts[i], pts[j]); got != want {
				t.Fatalf("kernel(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestInPlaceOpsMatchAllocating proves the in-place vector ops are
// bit-identical to their allocating counterparts.
func TestInPlaceOpsMatchAllocating(t *testing.T) {
	r := rng.New(3)
	v, w := NewVector(17), NewVector(17)
	for i := range v {
		v[i], w[i] = r.NormFloat64(), r.NormFloat64()
	}
	check := func(name string, got, want Vector) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s differs at %d: %v != %v", name, i, got[i], want[i])
			}
		}
	}
	add := v.Clone()
	add.AddInPlace(w)
	check("AddInPlace", add, v.Add(w))
	sub := v.Clone()
	sub.SubInPlace(w)
	check("SubInPlace", sub, v.Sub(w))
	sc := v.Clone()
	sc.ScaleInPlace(1 / 3.0)
	check("ScaleInPlace", sc, v.Scale(1/3.0))

	if avg := testing.AllocsPerRun(100, func() {
		add.AddInPlace(w)
		sub.SubInPlace(w)
		sc.ScaleInPlace(0.99)
	}); avg != 0 {
		t.Errorf("in-place ops: %v allocs/op, want 0", avg)
	}
}
