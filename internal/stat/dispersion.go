package stat

import (
	"math"
	"sort"
)

// Variance returns the population variance of xs (divide by n).
// The clustering pipeline standardizes with population moments, as the
// paper's "subtract the mean and divide by standard deviation" does.
func Variance(xs []float64) (float64, error) {
	mean, err := ArithmeticMean(xs)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, x := range xs {
		d := x - mean
		sum += d * d
	}
	return sum / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Quantile returns the q-quantile of xs, q in [0, 1], using linear
// interpolation between order statistics (type-7, the R/NumPy
// default). xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, ErrDomain
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Range returns max - min of xs.
func Range(xs []float64) (float64, error) {
	lo, err := Min(xs)
	if err != nil {
		return 0, err
	}
	hi, _ := Max(xs)
	return hi - lo, nil
}
