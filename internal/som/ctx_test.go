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

// TestTrainCtxBitIdentical proves a live cancellable context that
// never fires trains exactly the same map as context.Background.
func TestTrainCtxBitIdentical(t *testing.T) {
	samples := ctxSamples()
	cfg := Config{Rows: 4, Cols: 5, Seed: 2007}
	plain, err := TrainCtx(context.Background(), cfg, samples)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := TrainCtx(ctx, cfg, samples)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(withCtx) {
		t.Fatal("TrainCtx with a live context diverged from context.Background")
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
