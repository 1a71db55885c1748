package vecmath

import "math"

// Metric identifies a point-to-point distance function.
type Metric int

const (
	// Euclidean is the L2 distance, the paper's choice for both the
	// SOM best-matching-unit search and the clustering point distance.
	Euclidean Metric = iota
	// Manhattan is the L1 distance.
	Manhattan
	// Chebyshev is the L∞ distance.
	Chebyshev
	// Cosine is 1 - cosine similarity; it is 0 for parallel vectors
	// and 2 for anti-parallel ones. Zero vectors are at distance 1
	// from everything, a conventional choice that keeps the metric
	// total.
	Cosine
)

// String returns the metric's name.
func (m Metric) String() string {
	switch m {
	case Euclidean:
		return "euclidean"
	case Manhattan:
		return "manhattan"
	case Chebyshev:
		return "chebyshev"
	case Cosine:
		return "cosine"
	default:
		return "unknown"
	}
}

// Distance returns the distance between v and w under metric m.
// Loops computing many distances under one fixed metric should hoist
// the dispatch with Kernel instead of calling Distance per pair.
func Distance(m Metric, v, w Vector) float64 {
	return m.Kernel()(v, w)
}

// Kernel resolves the metric's point-pair distance function once, so
// bulk callers (distance-matrix builds, nearest-neighbour scans) pay
// one switch per call instead of one per pair. Every kernel computes
// exactly what Distance computes — same arithmetic, same order.
func (m Metric) Kernel() func(v, w Vector) float64 {
	switch m {
	case Euclidean:
		return EuclideanDistance
	case Manhattan:
		return ManhattanDistance
	case Chebyshev:
		return ChebyshevDistance
	case Cosine:
		return CosineDistance
	default:
		panic("vecmath: unknown metric")
	}
}

// ManhattanDistance returns the L1 distance between v and w.
func ManhattanDistance(v, w Vector) float64 {
	assertSameLen(v, w)
	sum := 0.0
	for i := range v {
		sum += math.Abs(v[i] - w[i])
	}
	return sum
}

// ChebyshevDistance returns the L∞ distance between v and w.
func ChebyshevDistance(v, w Vector) float64 {
	assertSameLen(v, w)
	maxAbs := 0.0
	for i := range v {
		if d := math.Abs(v[i] - w[i]); d > maxAbs {
			maxAbs = d
		}
	}
	return maxAbs
}

// CosineDistance returns 1 − cosine similarity; see the Cosine metric
// for the zero-vector convention.
func CosineDistance(v, w Vector) float64 {
	assertSameLen(v, w)
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 1
	}
	cos := v.Dot(w) / (nv * nw)
	cos = math.Max(-1, math.Min(1, cos))
	return 1 - cos
}

// EuclideanDistance returns the L2 distance between v and w without
// the metric dispatch; it is the inner loop of BMU search.
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
