package vecmath

import (
	"context"
	"errors"
	"math"
	"testing"

	"hmeans/internal/rng"
)

// randomPSD builds a random symmetric positive-semidefinite matrix
// as BᵀB.
func randomPSD(n int, seed uint64) *Matrix {
	r := rng.New(seed)
	b := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, r.NormFloat64())
		}
	}
	return b.Transpose().Mul(b)
}

func TestTopEigenMatchesJacobi(t *testing.T) {
	for _, n := range []int{3, 6, 12, 25} {
		a := randomPSD(n, uint64(n)*7)
		full, err := SymmetricEigen(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		top, err := TopEigen(context.Background(), a, 2, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for c := 0; c < 2; c++ {
			if !almostEqual(top.Values[c], full.Values[c], 1e-6) {
				t.Fatalf("n=%d comp %d: λ=%v, Jacobi %v", n, c, top.Values[c], full.Values[c])
			}
			// Vectors match up to sign.
			dot := math.Abs(top.Vectors[c].Dot(full.Vectors[c]))
			if !almostEqual(dot, 1, 1e-5) {
				t.Fatalf("n=%d comp %d: |cos| = %v", n, c, dot)
			}
		}
	}
}

func TestTopEigenDiagonal(t *testing.T) {
	a := FromRows([][]float64{{5, 0, 0}, {0, 2, 0}, {0, 0, 9}})
	top, err := TopEigen(context.Background(), a, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(top.Values[0], 9, 1e-8) || !almostEqual(top.Values[1], 5, 1e-8) {
		t.Fatalf("values = %v, want [9 5]", top.Values)
	}
}

func TestTopEigenRankDeficient(t *testing.T) {
	// Rank-1 matrix: second eigenvalue is zero; the solver must not
	// spin forever.
	v := Vector{1, 2, 3}.Normalize()
	a := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, 4*v[i]*v[j])
		}
	}
	top, err := TopEigen(context.Background(), a, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(top.Values[0], 4, 1e-8) {
		t.Fatalf("λ1 = %v, want 4", top.Values[0])
	}
	if math.Abs(top.Values[1]) > 1e-6 {
		t.Fatalf("λ2 = %v, want ~0", top.Values[1])
	}
}

// topEigenReference is TopEigen as it was before the Rayleigh-quotient
// product was carried forward: two matrix-vector products per
// iteration. It is the oracle for TestTopEigenMatchesReference.
func topEigenReference(a *Matrix, k int, seed uint64) (*Eigen, error) {
	const (
		maxIter = 1000
		tol     = 1e-10
	)
	if !a.IsSymmetric(1e-9) {
		return nil, ErrNotSymmetric
	}
	n := a.Rows()
	if k < 1 || k > n {
		return nil, ErrNoConvergence
	}
	r := rng.New(seed)
	work := a.Clone()
	out := &Eigen{Values: make([]float64, 0, k), Vectors: make([]Vector, 0, k)}
	for comp := 0; comp < k; comp++ {
		v := make(Vector, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		v = v.Normalize()
		lambda := 0.0
		converged := false
		for iter := 0; iter < maxIter; iter++ {
			next := work.MulVec(v)
			norm := next.Norm()
			if norm < 1e-300 {
				lambda = 0
				converged = true
				break
			}
			next = next.Scale(1 / norm)
			newLambda := next.Dot(work.MulVec(next))
			if math.Abs(newLambda-lambda) <= tol*math.Max(1, math.Abs(newLambda)) &&
				EuclideanDistance(next, v) < 1e-8 {
				v, lambda = next, newLambda
				converged = true
				break
			}
			v, lambda = next, newLambda
		}
		if !converged {
			return nil, ErrNoConvergence
		}
		out.Values = append(out.Values, lambda)
		out.Vectors = append(out.Vectors, v)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				work.Set(i, j, work.At(i, j)-lambda*v[i]*v[j])
			}
		}
	}
	return out, nil
}

// TestTopEigenMatchesReference proves that carrying the product
// forward changes no bit: eigenvalues and eigenvectors equal the
// two-product oracle's exactly, and so does every error, across
// matrix sizes, component counts, seeds and rank-deficient inputs.
func TestTopEigenMatchesReference(t *testing.T) {
	var inputs []*Matrix
	for _, n := range []int{2, 3, 6, 12, 25, 60} {
		for s := uint64(1); s <= 4; s++ {
			inputs = append(inputs, randomPSD(n, uint64(n)*31+s))
		}
	}
	// Low-rank covariance: 4 observations of 30 features, the shape
	// the SOM's PCA initialization sees.
	for s := uint64(1); s <= 4; s++ {
		r := rng.New(s)
		obs := NewMatrix(4, 30)
		for i := 0; i < 4; i++ {
			for j := 0; j < 30; j++ {
				obs.Set(i, j, r.NormFloat64())
			}
		}
		cov, _ := CovarianceMatrix(obs)
		inputs = append(inputs, cov)
	}
	inputs = append(inputs, NewMatrix(5, 5)) // all-zero spectrum
	for ii, a := range inputs {
		for k := 1; k <= 3 && k <= a.Rows(); k++ {
			for seed := uint64(0); seed < 5; seed++ {
				got, gotErr := TopEigen(context.Background(), a, k, seed)
				want, wantErr := topEigenReference(a, k, seed)
				if !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("input %d k=%d seed %d: error %v, reference %v", ii, k, seed, gotErr, wantErr)
				}
				if gotErr != nil {
					continue
				}
				for c := range want.Values {
					if math.Float64bits(got.Values[c]) != math.Float64bits(want.Values[c]) {
						t.Fatalf("input %d k=%d seed %d: λ%d = %v, reference %v", ii, k, seed, c, got.Values[c], want.Values[c])
					}
					for j := range want.Vectors[c] {
						if math.Float64bits(got.Vectors[c][j]) != math.Float64bits(want.Vectors[c][j]) {
							t.Fatalf("input %d k=%d seed %d: vector %d[%d] = %v, reference %v",
								ii, k, seed, c, j, got.Vectors[c][j], want.Vectors[c][j])
						}
					}
				}
			}
		}
	}
}

func TestTopEigenErrors(t *testing.T) {
	asym := FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := TopEigen(context.Background(), asym, 1, 1); !errors.Is(err, ErrNotSymmetric) {
		t.Error("asymmetric matrix accepted")
	}
	a := randomPSD(3, 1)
	if _, err := TopEigen(context.Background(), a, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := TopEigen(context.Background(), a, 4, 1); err == nil {
		t.Error("k>n accepted")
	}
}

func BenchmarkTopEigen2VsJacobi(b *testing.B) {
	b.ReportAllocs()
	a := randomPSD(150, 9)
	b.Run("power-top2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := TopEigen(context.Background(), a, 2, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("jacobi-full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := SymmetricEigen(context.Background(), a); err != nil {
				b.Fatal(err)
			}
		}
	})
}
