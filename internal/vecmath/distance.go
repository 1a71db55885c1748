package vecmath

import "math"

// Metric identifies a point-to-point distance function. Euclidean
// is its one value: the paper's distance for both the SOM
// best-matching-unit search and the clustering of SOM positions.
type Metric int

const (
	// Euclidean is the L2 distance.
	Euclidean Metric = iota
)

// Kernel resolves the metric's point-pair distance function once, so
// bulk callers (distance-matrix builds, nearest-neighbour scans) pay
// one switch per call instead of one per pair.
func (m Metric) Kernel() func(v, w Vector) float64 {
	if m != Euclidean {
		panic("vecmath: unknown metric")
	}
	return EuclideanDistance
}

// EuclideanDistance returns the L2 distance between v and w.
func EuclideanDistance(v, w Vector) float64 {
	return math.Sqrt(SquaredEuclidean(v, w))
}

// SquaredEuclidean returns the squared L2 distance. BMU search uses
// the squared form to skip the square root.
func SquaredEuclidean(v, w Vector) float64 {
	assertSameLen(v, w)
	sum := 0.0
	for i := range v {
		d := v[i] - w[i]
		sum += d * d
	}
	return sum
}

// DistanceMatrix returns the symmetric len(points)×len(points) matrix
// of pairwise distances under metric m, with a zero diagonal.
func DistanceMatrix(m Metric, points []Vector) *Matrix {
	n := len(points)
	out := NewMatrix(n, n)
	// One dispatch per call, not one per pair.
	kern := m.Kernel()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := kern(points[i], points[j])
			out.Set(i, j, d)
			out.Set(j, i, d)
		}
	}
	return out
}
