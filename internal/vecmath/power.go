package vecmath

import (
	"context"
	"math"

	"hmeans/internal/rng"
)

// TopEigen computes the k largest-magnitude eigenpairs of the
// symmetric positive-semidefinite matrix a (e.g. a covariance matrix)
// by power iteration with Hotelling deflation. For the
// dimensionalities the SOM's PCA initialization sees on bit-vector
// characterizations (hundreds of features), extracting two components
// this way is far cheaper than a full Jacobi decomposition, which is
// cubic per sweep.
//
// The matrix must be symmetric; eigenvalues of PSD matrices are
// non-negative so largest-magnitude equals largest. Deflation
// accumulates error with k, so this path is intended for small k
// (the pipeline needs k = 2). The context is polled before each
// iteration; once it has ended the iteration stops and returns its
// error.
func TopEigen(ctx context.Context, a *Matrix, k int, seed uint64) (*Eigen, error) {
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
		// av is work·v. The Rayleigh quotient of each iterate computes
		// the product the next iteration starts from, so it is carried
		// forward instead of recomputed: one product per iteration.
		av := work.MulVec(v)
		lambda := 0.0
		converged := false
		for iter := 0; iter < maxIter; iter++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			norm := av.Norm()
			if norm < 1e-300 {
				// The deflated matrix annihilated the guess: the
				// remaining spectrum is (numerically) zero.
				lambda = 0
				converged = true
				break
			}
			next := av
			next.ScaleInPlace(1 / norm)
			anext := work.MulVec(next)
			newLambda := next.Dot(anext)
			if math.Abs(newLambda-lambda) <= tol*math.Max(1, math.Abs(newLambda)) &&
				EuclideanDistance(next, v) < 1e-8 {
				v, lambda = next, newLambda
				converged = true
				break
			}
			v, lambda, av = next, newLambda, anext
		}
		if !converged {
			return nil, ErrNoConvergence
		}
		out.Values = append(out.Values, lambda)
		out.Vectors = append(out.Vectors, v)
		// Hotelling deflation: work -= λ v vᵀ.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				work.Set(i, j, work.At(i, j)-lambda*v[i]*v[j])
			}
		}
	}
	return out, nil
}
