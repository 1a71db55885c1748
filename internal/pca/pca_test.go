package pca

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// line2D samples points along y = 2x with tiny orthogonal jitter: the
// first principal component must align with (1,2)/√5.
func line2D(n int, jitter float64, seed uint64) [][]float64 {
	r := rng.New(seed)
	rows := make([][]float64, n)
	for i := range rows {
		t := r.NormFloat64() * 5
		j := r.NormFloat64() * jitter
		// jitter orthogonal to (1,2): direction (-2,1)/√5
		rows[i] = []float64{t - 2*j/math.Sqrt(5), 2*t + j/math.Sqrt(5)}
	}
	return rows
}

// totalVariance is the trace of the rows' covariance matrix: the
// variance a full-rank basis would explain.
func totalVariance(rows [][]float64) float64 {
	cov, _ := vecmath.CovarianceMatrix(vecmath.FromRows(rows))
	sum := 0.0
	for i := 0; i < cov.Rows(); i++ {
		sum += cov.At(i, i)
	}
	return sum
}

func TestFitRecoversLineDirection(t *testing.T) {
	m, err := Fit(line2D(200, 0.01, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Components[0]
	// Up to sign, c ≈ (1,2)/√5.
	want0, want1 := 1/math.Sqrt(5), 2/math.Sqrt(5)
	if !almostEqual(math.Abs(c[0]), want0, 1e-2) || !almostEqual(math.Abs(c[1]), want1, 1e-2) {
		t.Fatalf("first component = %v, want ±(%v, %v)", c, want0, want1)
	}
	if ev := m.Variances[0] / totalVariance(line2D(200, 0.01, 1)); ev < 0.999 {
		t.Fatalf("first component explains %v, want >0.999", ev)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([][]float64{{1, 2}}, 1); err == nil {
		t.Error("single observation accepted")
	}
	if _, err := Fit([][]float64{{1, 2}, {3, 4}}, 3); !errors.Is(err, ErrTooFewComponents) {
		t.Error("k > features accepted")
	}
	if _, err := Fit([][]float64{{1, 2}, {3, 4}}, 0); !errors.Is(err, ErrTooFewComponents) {
		t.Error("k = 0 accepted")
	}
}

func TestTransformCentersData(t *testing.T) {
	rows := line2D(100, 0.5, 2)
	scores, _, err := FitTransform(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Projected scores must have zero mean per component.
	for j := 0; j < 2; j++ {
		sum := 0.0
		for _, s := range scores {
			sum += s[j]
		}
		if math.Abs(sum/float64(len(scores))) > 1e-9 {
			t.Fatalf("component %d scores not centered: mean %v", j, sum/float64(len(scores)))
		}
	}
}

func TestTransformDimensionMismatch(t *testing.T) {
	m, err := Fit([][]float64{{1, 2}, {3, 4}, {5, 7}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Transform([][]float64{{1, 2, 3}}); err == nil {
		t.Error("wrong-width observation accepted")
	}
}

func TestExplainedVarianceSumsBelowOne(t *testing.T) {
	rows := line2D(50, 2, 3)
	m, err := Fit(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev := m.Variances[0] / totalVariance(rows); len(m.Variances) != 1 || ev <= 0 || ev > 1 {
		t.Fatalf("explained variance = %v of %d components, want one value in (0,1]", ev, len(m.Variances))
	}
}

func TestZeroVarianceData(t *testing.T) {
	rows := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	m, err := Fit(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range m.Variances {
		if v != 0 {
			t.Fatalf("variances of constant data = %v, want zeros", m.Variances)
		}
	}
	scores, err := m.Transform(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range scores {
		for _, s := range row {
			if s != 0 {
				t.Fatalf("constant data projected to non-zero score %v", s)
			}
		}
	}
}

// Property: projection scores' variance equals the component's
// eigenvalue (full-rank fit on random data).
func TestScoreVarianceMatchesEigenvalue(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n, d := 40, 3
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{r.NormFloat64(), r.NormFloat64() * 2, r.NormFloat64() * 0.5}
		}
		scores, m, err := FitTransform(rows, d)
		if err != nil {
			return false
		}
		for j := 0; j < d; j++ {
			var sum, sumSq float64
			for _, s := range scores {
				sum += s[j]
				sumSq += s[j] * s[j]
			}
			mean := sum / float64(n)
			variance := sumSq/float64(n) - mean*mean
			if !almostEqual(variance, m.Variances[j], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: pairwise distances are preserved by a full-rank PCA
// rotation (orthogonal transform).
func TestFullRankPCAPreservesDistances(t *testing.T) {
	r := rng.New(7)
	n, d := 15, 4
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = r.NormFloat64() * 3
		}
	}
	scores, _, err := FitTransform(rows, d)
	if err != nil {
		t.Fatal(err)
	}
	dist := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += (a[i] - b[i]) * (a[i] - b[i])
		}
		return math.Sqrt(s)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !almostEqual(dist(rows[i], rows[j]), dist(scores[i], scores[j]), 1e-7) {
				t.Fatalf("distance (%d,%d) not preserved", i, j)
			}
		}
	}
}
