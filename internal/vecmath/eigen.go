package vecmath

import (
	"context"
	"errors"
	"math"
	"sort"
)

// ErrNotSymmetric is returned when an eigendecomposition is requested
// for a matrix that is not symmetric.
var ErrNotSymmetric = errors.New("vecmath: matrix is not symmetric")

// ErrNoConvergence is returned when an iterative routine exceeds its
// sweep budget without reaching tolerance.
var ErrNoConvergence = errors.New("vecmath: iteration did not converge")

// Eigen holds the eigendecomposition of a symmetric matrix: Values
// are eigenvalues in descending order, and Vectors[i] is the unit
// eigenvector paired with Values[i].
type Eigen struct {
	Values  []float64
	Vectors []Vector
}

// SymmetricEigen computes all eigenvalues and eigenvectors of the
// symmetric matrix a using the cyclic Jacobi method. The input is not
// modified. A sweep costs O(n³): the pipeline decomposes the
// covariance of the samples' span coordinates, whose order is at most
// the smaller of the sample count less one and the feature count, and
// at that size the Jacobi's unconditional stability beats fancier
// algorithms. The context is polled before each row of a sweep's
// rotations; once it has ended the decomposition stops and returns its
// error.
func SymmetricEigen(ctx context.Context, a *Matrix) (*Eigen, error) {
	const maxSweeps = 100
	if !a.IsSymmetric(1e-9) {
		return nil, ErrNotSymmetric
	}
	n := a.Rows()
	w := a.Clone()   // working copy, driven to diagonal form
	v := Identity(n) // accumulated rotations: columns are eigenvectors
	// Convergence is judged relative to the matrix scale: the sum of
	// squared off-diagonals must fall below 1e-22 of the squared
	// Frobenius norm (or be exactly zero for a diagonal input).
	frob2 := 0.0
	for _, x := range w.data {
		frob2 += x * x
	}
	thresh := 1e-22 * frob2
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off <= thresh {
			return collectEigen(w, v), nil
		}
		for p := 0; p < n-1; p++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if apq == 0 {
					continue
				}
				// Classical Jacobi rotation annihilating w[p][q].
				theta := (w.At(q, q) - w.At(p, p)) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(w, v, p, q, c, s)
			}
		}
	}
	return nil, ErrNoConvergence
}

// rotate applies the Jacobi rotation G(p,q,θ) as w = GᵀwG and
// accumulates v = vG.
func rotate(w, v *Matrix, p, q int, c, s float64) {
	n := w.Rows()
	for k := 0; k < n; k++ {
		wkp, wkq := w.At(k, p), w.At(k, q)
		w.Set(k, p, c*wkp-s*wkq)
		w.Set(k, q, s*wkp+c*wkq)
	}
	for k := 0; k < n; k++ {
		wpk, wqk := w.At(p, k), w.At(q, k)
		w.Set(p, k, c*wpk-s*wqk)
		w.Set(q, k, s*wpk+c*wqk)
	}
	for k := 0; k < n; k++ {
		vkp, vkq := v.At(k, p), v.At(k, q)
		v.Set(k, p, c*vkp-s*vkq)
		v.Set(k, q, s*vkp+c*vkq)
	}
}

func collectEigen(w, v *Matrix) *Eigen {
	n := w.Rows()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return w.At(order[a], order[a]) > w.At(order[b], order[b]) })
	e := &Eigen{Values: make([]float64, n), Vectors: make([]Vector, n)}
	for rank, idx := range order {
		e.Values[rank] = w.At(idx, idx)
		e.Vectors[rank] = v.Col(idx)
	}
	return e
}
