package som

import (
	"context"
	"testing"

	"hmeans/internal/obs"
	"hmeans/internal/vecmath"
)

func obsSamples() []vecmath.Vector {
	return []vecmath.Vector{
		{0, 0}, {0.1, 0}, {0, 0.1},
		{5, 5}, {5.1, 5}, {5, 5.1},
		{-4, 6}, {-4.1, 6.1},
	}
}

// TestSequentialTrainingEmitsCheckpoints checks the som.step
// checkpoint events of the on-line loop: ~32 of them, with the
// learning rate annealing downward.
func TestSequentialTrainingEmitsCheckpoints(t *testing.T) {
	col := obs.NewCollector()
	cfg := Config{
		Rows: 4, Cols: 4, Steps: 640, Seed: 3, Obs: obs.New(col),
	}
	if _, err := TrainCtx(context.Background(), cfg, obsSamples()); err != nil {
		t.Fatal(err)
	}
	tr := col.Trace()
	var trainSpans int
	for _, s := range tr.Spans {
		if s.Name == "som.train" {
			trainSpans++
		}
	}
	if trainSpans != 1 {
		t.Fatalf("som.train spans = %d", trainSpans)
	}
	var alphas []float64
	for _, e := range tr.Events {
		if e.Name != "som.step" {
			continue
		}
		for _, a := range e.Attrs {
			if a.Key == "alpha" {
				alphas = append(alphas, a.Val.(float64))
			}
		}
	}
	if len(alphas) != 32 {
		t.Fatalf("som.step events = %d, want 32", len(alphas))
	}
	if !(alphas[len(alphas)-1] < alphas[0]) {
		t.Fatalf("learning rate did not anneal: first %v, last %v", alphas[0], alphas[len(alphas)-1])
	}
}

// TestInstrumentationPreservesWeights pins the "never affects the
// trained weights" contract.
func TestInstrumentationPreservesWeights(t *testing.T) {
	cfg := Config{Rows: 4, Cols: 4, Steps: 640, Seed: 7}
	bare, err := TrainCtx(context.Background(), cfg, obsSamples())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.New(obs.NewCollector())
	traced, err := TrainCtx(context.Background(), cfg, obsSamples())
	if err != nil {
		t.Fatal(err)
	}
	for u := range bare.weights {
		for j := range bare.weights[u] {
			if bare.weights[u][j] != traced.weights[u][j] {
				t.Fatalf("weight [%d][%d] differs: %v vs %v",
					u, j, bare.weights[u][j], traced.weights[u][j])
			}
		}
	}
}

// TestTrainSpanRecordsTrainDim checks that the som.train span names the
// dimension training ran in: the span rank on the PCA path when the
// samples span fewer dimensions than they have, the input dimension
// on every other path.
func TestTrainSpanRecordsTrainDim(t *testing.T) {
	counters := caseStudyCounters(t, 1)
	n, d := len(counters), len(counters[0])
	// Identical samples have zero variance, so the map starts from
	// random weights and trains in the full dimension. (Copies of a
	// case-study row would not do: rounding in the mean leaves them a
	// variance of a few ulps.)
	identical := make([]vecmath.Vector, n)
	for i := range identical {
		identical[i] = vecmath.NewVector(d)
		for j := range identical[i] {
			identical[i][j] = 1
		}
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		samples []vecmath.Vector
		want    int
	}{
		{"span", Config{Rows: 5, Cols: 4, Steps: 500}, counters, n - 1},
		{"random init", Config{Rows: 5, Cols: 4, Steps: 500}, identical, d},
		{"full rank", Config{Rows: 4, Cols: 4, Steps: 500}, obsSamples(), 2},
	} {
		col := obs.NewCollector()
		tc.cfg.Obs = obs.New(col)
		if _, err := TrainCtx(context.Background(), tc.cfg, tc.samples); err != nil {
			t.Fatal(err)
		}
		got := -1
		for _, s := range col.Trace().Spans {
			if s.Name != "som.train" {
				continue
			}
			for _, a := range s.Attrs {
				if a.Key == "train_dim" {
					got = a.Val.(int)
				}
			}
		}
		if got != tc.want {
			t.Errorf("%s: train_dim = %d, want %d", tc.name, got, tc.want)
		}
	}
}
