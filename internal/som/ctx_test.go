package som

import (
	"context"
	"errors"
	"testing"

	"hmeans/internal/vecmath"
)

func ctxSamples() []vecmath.Vector {
	out := make([]vecmath.Vector, 20)
	for i := range out {
		out[i] = vecmath.Vector{float64(i % 4), float64(i % 5), float64(i)}
	}
	return out
}

// TestTrainCtxBitIdentical proves the ctx-aware entry point trains
// exactly the same map as Train when the context never fires, for
// several worker counts.
func TestTrainCtxBitIdentical(t *testing.T) {
	samples := ctxSamples()
	for _, workers := range []int{1, 4} {
		cfg := Config{Rows: 4, Cols: 5, Seed: 2007, Parallelism: workers}
		plain, err := Train(cfg, samples)
		if err != nil {
			t.Fatal(err)
		}
		withCtx, err := TrainCtx(context.Background(), cfg, samples)
		if err != nil {
			t.Fatal(err)
		}
		if !plain.Equal(withCtx) {
			t.Fatalf("workers=%d: TrainCtx(Background) diverged from Train", workers)
		}
	}
}

func TestTrainCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := TrainCtx(ctx, Config{Rows: 4, Cols: 4, Seed: 1}, ctxSamples())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}
