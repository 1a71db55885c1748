package som

import (
	"math"

	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

// initRandom seeds every unit weight from a Gaussian centred on the
// data mean with the data's per-feature scale: the start of samples
// that span less than a plane (see newStart).
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

// gridSpan maps index i of an n-long axis to [−1, 1].
func gridSpan(i, n int) float64 {
	if n == 1 {
		return 0
	}
	return 2*float64(i)/float64(n-1) - 1
}
