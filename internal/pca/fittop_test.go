package pca

import (
	"context"
	"errors"
	"math"
	"testing"

	"hmeans/internal/rng"
)

func randomRows(n, d int, seed uint64) [][]float64 {
	r := rng.New(seed)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = r.NormFloat64() * float64(j%5+1)
		}
	}
	return rows
}

func TestFitTopMatchesFit(t *testing.T) {
	rows := randomRows(30, 8, 3)
	exact, err := Fit(context.Background(), rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := FitTop(context.Background(), rows, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		if !almostEqual(fast.Variances[c], exact.Variances[c], 1e-6) {
			t.Fatalf("component %d variance %v vs %v", c, fast.Variances[c], exact.Variances[c])
		}
		dot := 0.0
		for j := range fast.Components[c] {
			dot += fast.Components[c][j] * exact.Components[c][j]
		}
		if !almostEqual(math.Abs(dot), 1, 1e-5) {
			t.Fatalf("component %d direction |cos| = %v", c, math.Abs(dot))
		}
	}
}

func TestFitTopTransform(t *testing.T) {
	rows := line2D(100, 0.05, 9)
	m, err := FitTop(context.Background(), rows, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ev := m.Variances[0] / totalVariance(rows); ev < 0.99 {
		t.Fatalf("explained variance %v", ev)
	}
	scores, err := m.Transform(rows)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range scores {
		sum += s[0]
	}
	if math.Abs(sum/float64(len(scores))) > 1e-9 {
		t.Fatal("scores not centered")
	}
}

func TestFitTopErrors(t *testing.T) {
	if _, err := FitTop(context.Background(), [][]float64{{1, 2}}, 1, 1); err == nil {
		t.Error("single observation accepted")
	}
	if _, err := FitTop(context.Background(), randomRows(5, 3, 1), 4, 1); !errors.Is(err, ErrTooFewComponents) {
		t.Error("k > features accepted")
	}
	if _, err := FitTop(context.Background(), randomRows(5, 3, 1), 0, 1); !errors.Is(err, ErrTooFewComponents) {
		t.Error("k = 0 accepted")
	}
}
