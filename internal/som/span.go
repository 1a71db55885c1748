package som

import (
	"math"

	"hmeans/internal/vecmath"
)

// spanTol is the rank tolerance of newSpanBasis. A vector whose
// residual, after two Gram–Schmidt passes, is at most spanTol times
// the largest centered vector's norm already lies in the span up to
// rounding, and adds no basis direction.
const spanTol = 1e-12

// spanBasis is an orthonormal basis of the affine span that holds
// every training sample and every initial weight: each such vector v
// equals mean + Σₖ cₖ·q[k] with cₖ = q[k]·(v − mean), up to rounding.
//
// A sequential update w ← w + h·(x − w) is an affine combination of a
// weight and a sample, so the weights never leave that span, and an
// orthonormal basis preserves every Euclidean distance inside it.
// Training on the coordinates c is therefore the same algorithm as
// training on the full vectors, in exact arithmetic: the same BMUs,
// the same updates, the same random sample order.
type spanBasis struct {
	mean vecmath.Vector
	q    []vecmath.Vector
}

// newSpanBasis builds the basis by two-pass modified Gram–Schmidt over
// the centered samples, then the centered weights. The second pass
// restores the orthogonality the first loses to cancellation. The
// weights add a direction only when PCA's second axis is noise outside
// the samples' span, as on rank-1 data. It returns nil when the span
// has full rank, where coordinates would be no shorter than the
// vectors.
func newSpanBasis(samples, weights []vecmath.Vector) *spanBasis {
	dim := len(samples[0])
	mean := vecmath.NewVector(dim)
	for j := range mean {
		sum := 0.0
		for _, s := range samples {
			sum += s[j]
		}
		mean[j] = sum / float64(len(samples))
	}
	sets := [2][]vecmath.Vector{samples, weights}
	scale := 0.0
	for _, set := range sets {
		for _, v := range set {
			scale = math.Max(scale, vecmath.EuclideanDistance(v, mean))
		}
	}
	b := &spanBasis{mean: mean}
	g := vecmath.NewVector(dim)
	for _, set := range sets {
		for _, v := range set {
			for j := range g {
				g[j] = v[j] - mean[j]
			}
			for pass := 0; pass < 2; pass++ {
				for _, q := range b.q {
					g.AXPYInPlace(-q.Dot(g), q)
				}
			}
			norm := g.Norm()
			if norm <= spanTol*scale {
				continue
			}
			b.q = append(b.q, g.Scale(1/norm))
			if len(b.q) == dim {
				return nil
			}
		}
	}
	return b
}

// project writes v's coordinates q[k]·(v − mean) into c, using diff
// as scratch.
func (b *spanBasis) project(c, v, diff vecmath.Vector) {
	for j := range diff {
		diff[j] = v[j] - b.mean[j]
	}
	for k, q := range b.q {
		c[k] = q.Dot(diff)
	}
}

// lift writes the vector mean + Σₖ c[k]·q[k] into v.
func (b *spanBasis) lift(v, c vecmath.Vector) {
	copy(v, b.mean)
	for k, q := range b.q {
		v.AXPYInPlace(c[k], q)
	}
}
