// Package vecmath provides the small dense linear-algebra kernel the
// pipeline needs: vectors, row-major matrices, distance metrics, a
// symmetric eigendecomposition (cyclic Jacobi) for PCA, and a pivoted
// Gaussian linear solver. It deliberately implements only what the
// library uses, with explicit dimension checks that panic — dimension
// mismatches here are always programmer errors, never data errors.
package vecmath

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Add returns v + w.
func (v Vector) Add(w Vector) Vector {
	assertSameLen(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w.
func (v Vector) Sub(w Vector) Vector {
	assertSameLen(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns c * v.
func (v Vector) Scale(c float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// AXPYInPlace performs v += a*w without allocating; it is the hot
// operation of SOM weight updates.
func (v Vector) AXPYInPlace(a float64, w Vector) {
	assertSameLen(v, w)
	for i := range v {
		v[i] += a * w[i]
	}
}

// AddInPlace performs v += w without allocating. Element order and
// arithmetic match Add exactly.
func (v Vector) AddInPlace(w Vector) {
	assertSameLen(v, w)
	for i := range v {
		v[i] += w[i]
	}
}

// SubInPlace performs v -= w without allocating. Element order and
// arithmetic match Sub exactly.
func (v Vector) SubInPlace(w Vector) {
	assertSameLen(v, w)
	for i := range v {
		v[i] -= w[i]
	}
}

// ScaleInPlace performs v = c*v without allocating. Each element is
// computed as c*v[i], the same expression Scale uses, so the results
// are bit-identical.
func (v Vector) ScaleInPlace(c float64) {
	for i := range v {
		v[i] = c * v[i]
	}
}

// Dot returns the inner product of v and w.
func (v Vector) Dot(w Vector) float64 {
	assertSameLen(v, w)
	sum := 0.0
	for i := range v {
		sum += v[i] * w[i]
	}
	return sum
}

// Norm returns the Euclidean (L2) norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

func assertSameLen(v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vecmath: dimension mismatch %d vs %d", len(v), len(w)))
	}
}
