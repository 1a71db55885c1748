// Package pca implements Principal Components Analysis on top of the
// vecmath eigendecomposition.
//
// PCA plays two roles in the reproduction:
//
//  1. SOM weight initialization — the paper initializes the unit grid
//     "by sampling a subspace generated by the two major principal
//     components" of the characteristic vectors.
//  2. Baseline dimension reduction — the paper argues SOM beats the
//     PCA approach of prior work ([5], [10], [11], [12]) for
//     non-linear data such as the method-utilization bit vectors; the
//     ablation benches compare the two reductions directly.
package pca

import (
	"errors"
	"fmt"

	"hmeans/internal/vecmath"
)

// ErrTooFewComponents is returned when the requested number of
// components exceeds the feature dimensionality.
var ErrTooFewComponents = errors.New("pca: requested more components than features")

// Model is a fitted PCA basis.
type Model struct {
	// Means is the per-feature mean removed before projection.
	Means vecmath.Vector
	// Components holds the principal axes, most significant first;
	// each has unit norm and the dimensionality of the input.
	Components []vecmath.Vector
	// Variances holds the eigenvalue (variance along the axis) of
	// each component, in the same order.
	Variances []float64
}

// Fit computes the top-k principal components of the observation
// rows (observations × features). k must be between 1 and the number
// of features; there must be at least two observations.
func Fit(rows [][]float64, k int) (*Model, error) {
	if len(rows) < 2 {
		return nil, errors.New("pca: need at least two observations")
	}
	d := len(rows[0])
	if k < 1 || k > d {
		return nil, fmt.Errorf("%w: k=%d, features=%d", ErrTooFewComponents, k, d)
	}
	obs := vecmath.FromRows(rows)
	cov, means := vecmath.CovarianceMatrix(obs)
	eig, err := vecmath.SymmetricEigen(cov)
	if err != nil {
		return nil, fmt.Errorf("pca: eigendecomposition failed: %w", err)
	}
	m := &Model{
		Means:      means,
		Components: make([]vecmath.Vector, k),
		Variances:  make([]float64, k),
	}
	for i := 0; i < k; i++ {
		m.Components[i] = eig.Vectors[i]
		// Covariance eigenvalues are non-negative up to rounding;
		// clamp the rounding away.
		if eig.Values[i] > 0 {
			m.Variances[i] = eig.Values[i]
		}
	}
	return m, nil
}

// Transform projects each observation row onto the fitted components,
// returning rows of k scores.
func (m *Model) Transform(rows [][]float64) ([][]float64, error) {
	out := make([][]float64, len(rows))
	for i, row := range rows {
		if len(row) != len(m.Means) {
			return nil, fmt.Errorf("pca: observation %d has %d features, model has %d", i, len(row), len(m.Means))
		}
		centered := vecmath.Vector(row).Sub(m.Means)
		scores := make([]float64, len(m.Components))
		for j, c := range m.Components {
			scores[j] = centered.Dot(c)
		}
		out[i] = scores
	}
	return out, nil
}

// FitTop computes the top-k principal components with power
// iteration instead of a full Jacobi eigendecomposition — the right
// tool when k is small and the feature count is large (the SOM's
// initialization needs exactly two components of potentially
// hundreds of standardized counters or method bits).
func FitTop(rows [][]float64, k int, seed uint64) (*Model, error) {
	if len(rows) < 2 {
		return nil, errors.New("pca: need at least two observations")
	}
	d := len(rows[0])
	if k < 1 || k > d {
		return nil, fmt.Errorf("%w: k=%d, features=%d", ErrTooFewComponents, k, d)
	}
	obs := vecmath.FromRows(rows)
	cov, means := vecmath.CovarianceMatrix(obs)
	eig, err := vecmath.TopEigen(cov, k, seed)
	if err != nil {
		return nil, fmt.Errorf("pca: power iteration failed: %w", err)
	}
	m := &Model{
		Means:      means,
		Components: make([]vecmath.Vector, k),
		Variances:  make([]float64, k),
	}
	for i := 0; i < k; i++ {
		m.Components[i] = eig.Vectors[i]
		if eig.Values[i] > 0 {
			m.Variances[i] = eig.Values[i]
		}
	}
	return m, nil
}

// FitTransform fits a k-component model and immediately projects the
// training rows through it.
func FitTransform(rows [][]float64, k int) ([][]float64, *Model, error) {
	m, err := Fit(rows, k)
	if err != nil {
		return nil, nil, err
	}
	scores, err := m.Transform(rows)
	if err != nil {
		return nil, nil, err
	}
	return scores, m, nil
}
