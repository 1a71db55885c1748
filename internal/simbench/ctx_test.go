package simbench

import (
	"context"
	"errors"
	"testing"
)

// suite unwraps the calibrated 13-workload suite for tests.
func suite(t *testing.T) []Workload {
	t.Helper()
	ws, _, err := CalibratedSuite()
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

func TestMeasuredSpeedupsCtx(t *testing.T) {
	ws := suite(t)
	plain, err := MeasuredSpeedups(ws, MachineA(), Reference(), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := MeasuredSpeedupsCtx(context.Background(), ws, MachineA(), Reference(), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i] != withCtx[i] {
			t.Fatalf("workload %d: ctx variant diverged: %v vs %v", i, plain[i], withCtx[i])
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MeasuredSpeedupsCtx(ctx, ws, MachineA(), Reference(), 10, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign: error %v, want context.Canceled", err)
	}
}

func TestMeasuredSpeedupsParallelCtx(t *testing.T) {
	ws := suite(t)
	got, err := MeasuredSpeedupsParallelCtx(context.Background(), ws, MachineA(), Reference(), 10, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ws) {
		t.Fatalf("got %d speedups for %d workloads", len(got), len(ws))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MeasuredSpeedupsParallelCtx(ctx, ws, MachineA(), Reference(), 10, 7, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign: error %v, want context.Canceled", err)
	}
}
