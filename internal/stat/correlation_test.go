package stat

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestCovariance(t *testing.T) {
	xs := []float64{1, 2, 3}
	ys := []float64{2, 4, 6}
	got, err := Covariance(xs, ys)
	if err != nil || !almostEqual(got, 4.0/3.0, eps) {
		t.Fatalf("Covariance = %v, %v; want 4/3", got, err)
	}
	if _, err := Covariance(xs, ys[:2]); !errors.Is(err, ErrDomain) {
		t.Error("length mismatch not rejected")
	}
	if _, err := Covariance(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Error("empty input not rejected")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 20, 30, 40}
	if r, err := Pearson(xs, ys); err != nil || !almostEqual(r, 1, eps) {
		t.Errorf("Pearson(perfect+) = %v, %v; want 1", r, err)
	}
	neg := []float64{40, 30, 20, 10}
	if r, err := Pearson(xs, neg); err != nil || !almostEqual(r, -1, eps) {
		t.Errorf("Pearson(perfect-) = %v, %v; want -1", r, err)
	}
}

func TestPearsonConstantRejected(t *testing.T) {
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); !errors.Is(err, ErrDomain) {
		t.Error("constant sample not rejected")
	}
}

// Property: Pearson is bounded in [-1, 1] and symmetric.
func TestPearsonProperties(t *testing.T) {
	f := func(rawX, rawY []float64) bool {
		xs := positiveSample(rawX)
		ys := positiveSample(rawY)
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n < 3 {
			return true
		}
		xs, ys = xs[:n], ys[:n]
		xs[0] += 1
		ys[0] += 2 // avoid constant vectors
		r1, err1 := Pearson(xs, ys)
		if err1 != nil {
			return true // constant after truncation — fine
		}
		r2, err2 := Pearson(ys, xs)
		if err2 != nil {
			return false
		}
		return r1 >= -1 && r1 <= 1 && almostEqual(r1, r2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pearson is invariant under positive affine transforms.
func TestPearsonAffineInvariance(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw float64) bool {
		xs := positiveSample(raw)
		if len(xs) < 3 {
			return true
		}
		xs[0] += 1
		a := math.Abs(math.Mod(aRaw, 5)) + 0.1
		b := math.Mod(bRaw, 50)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a*x + b
		}
		r, err := Pearson(xs, ys)
		return err == nil && almostEqual(r, 1, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
