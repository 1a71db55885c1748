package vecmath

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"hmeans/internal/rng"
)

func TestSymmetricEigenKnown(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	e, err := SymmetricEigen(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(e.Values[0], 3, 1e-9) || !almostEqual(e.Values[1], 1, 1e-9) {
		t.Fatalf("eigenvalues = %v, want [3 1]", e.Values)
	}
	// Eigenvector for λ=3 is (1,1)/√2 up to sign.
	v := e.Vectors[0]
	if !almostEqual(math.Abs(v[0]), 1/math.Sqrt2, 1e-9) || !almostEqual(math.Abs(v[1]), 1/math.Sqrt2, 1e-9) {
		t.Fatalf("leading eigenvector = %v", v)
	}
}

func TestSymmetricEigenDiagonal(t *testing.T) {
	a := FromRows([][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 3}})
	e, err := SymmetricEigen(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 3, -2}
	for i, w := range want {
		if !almostEqual(e.Values[i], w, 1e-12) {
			t.Fatalf("eigenvalues = %v, want %v", e.Values, want)
		}
	}
}

func TestSymmetricEigenRejectsAsymmetric(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := SymmetricEigen(context.Background(), a); !errors.Is(err, ErrNotSymmetric) {
		t.Fatalf("err = %v, want ErrNotSymmetric", err)
	}
}

// randomSymmetric builds a random symmetric matrix with a fixed seed.
func randomSymmetric(n int, seed uint64) *Matrix {
	r := rng.New(seed)
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64() * 3
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

func TestEigenReconstruction(t *testing.T) {
	// A = V diag(λ) Vᵀ must reconstruct the original matrix.
	for _, n := range []int{2, 3, 5, 8, 12} {
		a := randomSymmetric(n, uint64(n))
		e, err := SymmetricEigen(context.Background(), a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sum := 0.0
				for k := 0; k < n; k++ {
					sum += e.Values[k] * e.Vectors[k][i] * e.Vectors[k][j]
				}
				if !almostEqual(sum, a.At(i, j), 1e-7) {
					t.Fatalf("n=%d: reconstruction (%d,%d) = %v, want %v", n, i, j, sum, a.At(i, j))
				}
			}
		}
	}
}

func TestEigenOrthonormal(t *testing.T) {
	a := randomSymmetric(7, 99)
	e, err := SymmetricEigen(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.Vectors {
		for j := range e.Vectors {
			dot := e.Vectors[i].Dot(e.Vectors[j])
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEqual(dot, want, 1e-8) {
				t.Fatalf("v%d·v%d = %v, want %v", i, j, dot, want)
			}
		}
	}
}

// Property: trace(A) = sum of eigenvalues.
func TestEigenTraceInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		n := int(seed%6) + 2
		a := randomSymmetric(n, seed)
		e, err := SymmetricEigen(context.Background(), a)
		if err != nil {
			return false
		}
		trace, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += e.Values[i]
		}
		return almostEqual(trace, sum, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: eigenvalues come out sorted in descending order.
func TestEigenSorted(t *testing.T) {
	f := func(seed uint64) bool {
		a := randomSymmetric(int(seed%5)+2, seed^0xabcdef)
		e, err := SymmetricEigen(context.Background(), a)
		if err != nil {
			return false
		}
		for i := 1; i < len(e.Values); i++ {
			if e.Values[i] > e.Values[i-1]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// endingCtx is a context whose Err reports context.Canceled from its
// (live+1)-th call on. It counts the calls.
type endingCtx struct {
	context.Context
	live, polls int
}

func (c *endingCtx) Err() error {
	c.polls++
	if c.polls > c.live {
		return context.Canceled
	}
	return nil
}

// TestEigenSolversStopOnEndedContext: the Jacobi polls its context
// before every row of rotations and CovarianceMatrix before every row
// of the covariance, so each returns the context's error at its first
// poll when the context ended before the call, and at its next poll
// when it ends mid-run.
func TestEigenSolversStopOnEndedContext(t *testing.T) {
	a := randomSymmetric(40, 3)
	for name, solve := range map[string]func(context.Context) error{
		"SymmetricEigen":   func(ctx context.Context) error { _, err := SymmetricEigen(ctx, a); return err },
		"CovarianceMatrix": func(ctx context.Context) error { _, _, err := CovarianceMatrix(ctx, a); return err },
	} {
		full := &endingCtx{Context: context.Background(), live: math.MaxInt}
		if err := solve(full); err != nil || full.polls <= 10 {
			t.Fatalf("%s: %v after %d polls, want success after more than 10", name, err, full.polls)
		}
		for _, live := range []int{0, 10} {
			ctx := &endingCtx{Context: context.Background(), live: live}
			if err := solve(ctx); !errors.Is(err, context.Canceled) || ctx.polls != live+1 {
				t.Fatalf("%s, context ending after %d polls: %v after %d polls, want context.Canceled after %d", name, live, err, ctx.polls, live+1)
			}
		}
	}
}
