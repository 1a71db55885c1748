package stat

import (
	"errors"
	"testing"

	"hmeans/internal/rng"
)

func TestBootstrapMeanCIBasic(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = 2 + 0.3*r.NormFloat64()
	}
	iv, err := BootstrapMeanCI(xs, 0.95, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo >= iv.Hi {
		t.Fatalf("degenerate interval %+v", iv)
	}
	if !iv.Contains(iv.Point) {
		t.Fatalf("interval %v..%v excludes its own point %v", iv.Lo, iv.Hi, iv.Point)
	}
	// The true GM (~2) must be comfortably inside.
	if !iv.Contains(2) {
		t.Fatalf("interval %v..%v excludes the true mean", iv.Lo, iv.Hi)
	}
	if iv.Width() <= 0 || iv.Width() > 0.5 {
		t.Fatalf("implausible width %v", iv.Width())
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	a, err := BootstrapMeanCI(xs, 0.9, 200, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BootstrapMeanCI(xs, 0.9, 200, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("bootstrap not deterministic: %+v vs %+v", a, b)
	}
}

func TestBootstrapWiderAtHigherLevel(t *testing.T) {
	xs := []float64{1, 3, 2, 5, 4, 7, 6, 2, 3, 8}
	iv90, err := BootstrapMeanCI(xs, 0.90, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	iv99, err := BootstrapMeanCI(xs, 0.99, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	if iv99.Width() <= iv90.Width() {
		t.Fatalf("99%% interval (%v) not wider than 90%% (%v)", iv99.Width(), iv90.Width())
	}
}

func TestBootstrapErrors(t *testing.T) {
	if _, err := BootstrapMeanCI(nil, 0.95, 100, 1); !errors.Is(err, ErrEmpty) {
		t.Error("empty sample accepted")
	}
	xs := []float64{1, 2}
	if _, err := BootstrapMeanCI(xs, 0, 100, 1); !errors.Is(err, ErrDomain) {
		t.Error("level 0 accepted")
	}
	if _, err := BootstrapMeanCI(xs, 1, 100, 1); !errors.Is(err, ErrDomain) {
		t.Error("level 1 accepted")
	}
	if _, err := BootstrapMeanCI(xs, 0.95, 5, 1); !errors.Is(err, ErrDomain) {
		t.Error("too few resamples accepted")
	}
	// Statistic that always fails.
	_, err := BootstrapCI(xs, 0.95, 100, 1, func([]float64) (float64, error) {
		return 0, ErrDomain
	})
	if err == nil {
		t.Error("always-failing statistic accepted")
	}
}

func TestBootstrapCustomStatistic(t *testing.T) {
	xs := []float64{5, 5, 5, 5}
	median := func(xs []float64) (float64, error) { return Quantile(xs, 0.5) }
	iv, err := BootstrapCI(xs, 0.95, 100, 1, median)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 5 || iv.Hi != 5 || iv.Point != 5 {
		t.Fatalf("constant-sample median CI = %+v", iv)
	}
}
