package stat

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestVariance(t *testing.T) {
	got, err := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil || got != 4 {
		t.Fatalf("Variance = %v, %v; want 4", got, err)
	}
}

func TestStdDevConstant(t *testing.T) {
	got, err := StdDev([]float64{3, 3, 3})
	if err != nil || got != 0 {
		t.Fatalf("StdDev(const) = %v, %v; want 0", got, err)
	}
}

func TestMinMaxRange(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	lo, _ := Min(xs)
	hi, _ := Max(xs)
	rg, _ := Range(xs)
	if lo != -1 || hi != 7 || rg != 8 {
		t.Fatalf("Min/Max/Range = %v/%v/%v; want -1/7/8", lo, hi, rg)
	}
	if _, err := Min(nil); !errors.Is(err, ErrEmpty) {
		t.Error("Min(nil) should fail")
	}
	if _, err := Range(nil); !errors.Is(err, ErrEmpty) {
		t.Error("Range(nil) should fail")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil || !almostEqual(got, c.want, eps) {
			t.Errorf("Quantile(%v) = %v, %v; want %v", c.q, got, err, c.want)
		}
	}
	if _, err := Quantile(xs, 1.5); !errors.Is(err, ErrDomain) {
		t.Error("Quantile(1.5) should fail")
	}
	if _, err := Quantile(xs, math.NaN()); !errors.Is(err, ErrDomain) {
		t.Error("Quantile(NaN) should fail")
	}
	if q, _ := Quantile([]float64{42}, 0.3); q != 42 {
		t.Error("single-element quantile should be the element")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_, _ = Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantile mutated its input: %v", xs)
	}
}

// Property: variance is translation invariant and scales quadratically.
func TestVarianceProperties(t *testing.T) {
	f := func(raw []float64, shiftRaw, scaleRaw float64) bool {
		xs := positiveSample(raw)
		shift := math.Mod(shiftRaw, 100)
		scale := math.Mod(scaleRaw, 10)
		if math.IsNaN(shift) || math.IsNaN(scale) {
			return true
		}
		moved := make([]float64, len(xs))
		for i, x := range xs {
			moved[i] = scale*x + shift
		}
		v1, _ := Variance(xs)
		v2, _ := Variance(moved)
		return almostEqual(v2, scale*scale*v1, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotone in q.
func TestQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1Raw, q2Raw float64) bool {
		xs := positiveSample(raw)
		q1 := math.Abs(math.Mod(q1Raw, 1))
		q2 := math.Abs(math.Mod(q2Raw, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, e1 := Quantile(xs, q1)
		v2, e2 := Quantile(xs, q2)
		return e1 == nil && e2 == nil && v1 <= v2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
