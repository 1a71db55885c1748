package som

import (
	"math"

	"hmeans/internal/pca"
	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

// initRandom seeds every unit weight from a Gaussian centred on the
// data mean with the data's per-feature scale: the fallback for
// samples that cannot support initPCA's plane.
func (m *Map) initRandom(samples []vecmath.Vector, r *rng.Source) {
	mean := vecmath.NewVector(m.dim)
	for _, s := range samples {
		mean.AXPYInPlace(1/float64(len(samples)), s)
	}
	scale := vecmath.NewVector(m.dim)
	for _, s := range samples {
		for j := range scale {
			d := s[j] - mean[j]
			scale[j] += d * d
		}
	}
	for j := range scale {
		scale[j] = math.Sqrt(scale[j]/float64(len(samples))) + 1e-6
	}
	for _, w := range m.weights {
		for j := range w {
			w[j] = mean[j] + 0.3*scale[j]*r.NormFloat64()
		}
	}
}

// initPCA spans the grid linearly across the plane of the two major
// principal components, the paper's initialization: unit (row, col)
// starts at mean + u·√λ1·pc1 + v·√λ2·pc2 with u, v ∈ [−1, 1]. It
// reports whether the initialization succeeded; failure (fewer than
// three samples, 1-D input or zero variance) leaves the weights
// untouched so the caller can fall back to random initialization.
func (m *Map) initPCA(samples []vecmath.Vector) bool {
	if len(samples) < 3 || m.dim < 2 {
		return false
	}
	rows := make([][]float64, len(samples))
	for i, s := range samples {
		rows[i] = s
	}
	// Power iteration extracts just the two components the plane
	// needs — much cheaper than a full eigendecomposition when the
	// characterization has hundreds of features. Fall back to the
	// exact Jacobi path if it fails to converge (e.g. two leading
	// eigenvalues nearly tied).
	model, err := pca.FitTop(rows, 2, 0x50b0)
	if err != nil {
		if model, err = pca.Fit(rows, 2); err != nil {
			return false
		}
	}
	s1 := math.Sqrt(model.Variances[0])
	s2 := math.Sqrt(model.Variances[1])
	if s1 == 0 {
		return false
	}
	if s2 == 0 {
		// Rank-1 data: stretch the second axis a little so units do
		// not start exactly collinear.
		s2 = s1 / 10
	}
	for gr := 0; gr < m.rows; gr++ {
		for gc := 0; gc < m.cols; gc++ {
			u, v := gridSpan(gr, m.rows), gridSpan(gc, m.cols)
			w := m.weights[gr*m.cols+gc]
			for j := range w {
				w[j] = model.Means[j] + u*s1*model.Components[0][j] + v*s2*model.Components[1][j]
			}
		}
	}
	return true
}

// gridSpan maps index i of an n-long axis to [−1, 1].
func gridSpan(i, n int) float64 {
	if n == 1 {
		return 0
	}
	return 2*float64(i)/float64(n-1) - 1
}
