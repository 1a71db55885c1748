package som

import "testing"

// TestBMUAllocationFree pins the BMU scan — the innermost loop of
// training — at zero heap allocations.
func TestBMUAllocationFree(t *testing.T) {
	samples := benchSamples(14, 160)
	m, err := Train(Config{Rows: 10, Cols: 10, Steps: 500, Seed: 1}, samples)
	if err != nil {
		t.Fatal(err)
	}
	x := samples[3]
	if avg := testing.AllocsPerRun(200, func() { m.bmu(x) }); avg != 0 {
		t.Errorf("bmu scan: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { m.BMU(x) }); avg != 0 {
		t.Errorf("BMU: %v allocs/op, want 0", avg)
	}
}
