package stat

import "math"

// Covariance returns the population covariance of paired samples
// xs and ys, which must have equal, non-zero length.
func Covariance(xs, ys []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) != len(ys) {
		return 0, ErrDomain
	}
	mx, _ := ArithmeticMean(xs)
	my, _ := ArithmeticMean(ys)
	sum := 0.0
	for i := range xs {
		sum += (xs[i] - mx) * (ys[i] - my)
	}
	return sum / float64(len(xs)), nil
}

// Pearson returns the Pearson product-moment correlation coefficient
// of xs and ys. It returns ErrDomain if either sample is constant.
func Pearson(xs, ys []float64) (float64, error) {
	cov, err := Covariance(xs, ys)
	if err != nil {
		return 0, err
	}
	sx, _ := StdDev(xs)
	sy, _ := StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0, ErrDomain
	}
	r := cov / (sx * sy)
	// Guard rounding excursions outside [-1, 1].
	return math.Max(-1, math.Min(1, r)), nil
}
