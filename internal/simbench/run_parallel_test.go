package simbench

import (
	"context"
	"math"
	"testing"
)

// TestMeasuredSpeedupsParallelWorkerInvariant: the parallel campaign
// seeds every workload's noise stream up front from the campaign
// seed, so the speedups must be bit-identical for every worker count.
func TestMeasuredSpeedupsParallelWorkerInvariant(t *testing.T) {
	ws, _, err := CalibratedSuite()
	if err != nil {
		t.Fatal(err)
	}
	base, err := MeasuredSpeedupsParallelCtx(context.Background(), ws, MachineA(), Reference(), 10, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(ws) {
		t.Fatalf("got %d speedups for %d workloads", len(base), len(ws))
	}
	for _, v := range base {
		if !(v > 0) {
			t.Fatalf("non-positive speedup %v", v)
		}
	}
	for _, workers := range []int{2, 8} {
		got, err := MeasuredSpeedupsParallelCtx(context.Background(), ws, MachineA(), Reference(), 10, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(base[i]) {
				t.Fatalf("workers %d: speedup %d = %v, 1-worker %v", workers, i, got[i], base[i])
			}
		}
	}
}
