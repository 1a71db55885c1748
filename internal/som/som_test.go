package som

import (
	"context"
	"errors"
	"math"
	"testing"

	"hmeans/internal/obs"
	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

// twoBlobs generates two well-separated Gaussian clusters in dim-D.
func twoBlobs(nPer, dim int, sep float64, seed uint64) (samples []vecmath.Vector, labels []int) {
	r := rng.New(seed)
	for b := 0; b < 2; b++ {
		centre := float64(b) * sep
		for i := 0; i < nPer; i++ {
			v := make(vecmath.Vector, dim)
			for j := range v {
				v[j] = centre + 0.3*r.NormFloat64()
			}
			samples = append(samples, v)
			labels = append(labels, b)
		}
	}
	return samples, labels
}

func TestTrainErrors(t *testing.T) {
	if _, err := TrainCtx(context.Background(), Config{}, nil); !errors.Is(err, ErrNoData) {
		t.Errorf("empty input err = %v, want ErrNoData", err)
	}
	if _, err := TrainCtx(context.Background(), Config{}, []vecmath.Vector{{}}); err == nil {
		t.Error("zero-dim samples accepted")
	}
	if _, err := TrainCtx(context.Background(), Config{}, []vecmath.Vector{{1, 2}, {1}}); err == nil {
		t.Error("ragged samples accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := (&Config{}).withDefaults()
	if c.Rows != 10 || c.Cols != 10 {
		t.Errorf("default grid = %dx%d, want 10x10", c.Rows, c.Cols)
	}
	if c.Steps != 500*100 {
		t.Errorf("default steps = %d, want 50000", c.Steps)
	}
	// The schedule starts at α(0) = 0.5 and σ(0) = half the larger
	// grid side, as the first som.step checkpoint reports.
	samples, _ := twoBlobs(5, 3, 5, 41)
	col := obs.NewCollector()
	if _, err := TrainCtx(context.Background(), Config{Rows: 3, Cols: 5, Steps: 64, Seed: 1, Obs: obs.New(col)}, samples); err != nil {
		t.Fatal(err)
	}
	evs := col.Trace().Events
	if len(evs) == 0 || evs[0].Name != "som.step" {
		t.Fatalf("first event %v, want a som.step checkpoint", evs)
	}
	attrs := map[string]any{}
	for _, a := range evs[0].Attrs {
		attrs[a.Key] = a.Val
	}
	if attrs["step"] != 0 || attrs["alpha"] != 0.5 || attrs["sigma"] != 2.5 {
		t.Errorf("first checkpoint step/alpha/sigma = %v/%v/%v, want 0/0.5/2.5",
			attrs["step"], attrs["alpha"], attrs["sigma"])
	}
}

func TestTrainDeterministic(t *testing.T) {
	samples, _ := twoBlobs(10, 4, 5, 1)
	cfg := Config{Rows: 6, Cols: 6, Steps: 2000, Seed: 42}
	m1, err := TrainCtx(context.Background(), cfg, samples)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainCtx(context.Background(), cfg, samples)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			w1, w2 := m1.Weight(r, c), m2.Weight(r, c)
			for j := range w1 {
				if w1[j] != w2[j] {
					t.Fatalf("same seed produced different maps at (%d,%d)", r, c)
				}
			}
		}
	}
}

func TestTrainSeparatesBlobs(t *testing.T) {
	samples, labels := twoBlobs(12, 6, 8, 3)
	m, err := TrainCtx(context.Background(), Config{Rows: 8, Cols: 8, Steps: 8000, Seed: 7}, samples)
	if err != nil {
		t.Fatal(err)
	}
	// Mean grid position per blob must be far apart relative to the
	// within-blob spread.
	var pos [2][]vecmath.Vector
	for i, s := range samples {
		pos[labels[i]] = append(pos[labels[i]], m.Position(s))
	}
	centroid := func(ps []vecmath.Vector) vecmath.Vector {
		c := vecmath.NewVector(2)
		for _, p := range ps {
			c.AXPYInPlace(1/float64(len(ps)), p)
		}
		return c
	}
	c0, c1 := centroid(pos[0]), centroid(pos[1])
	between := vecmath.EuclideanDistance(c0, c1)
	within := 0.0
	for b, ps := range pos {
		cb := []vecmath.Vector{c0, c1}[b]
		for _, p := range ps {
			within += vecmath.EuclideanDistance(p, cb)
		}
	}
	within /= float64(len(samples))
	if between < 2 {
		t.Fatalf("blob centroids only %.2f cells apart on the map", between)
	}
	if within > between {
		t.Fatalf("within-blob spread %.2f exceeds between-blob distance %.2f", within, between)
	}
}

func TestIdenticalSamplesShareCell(t *testing.T) {
	// The paper: "when two or more workloads are similar enough,
	// they can map to the same unit."
	base := vecmath.Vector{1, 2, 3, 4}
	samples := []vecmath.Vector{
		base.Clone(), base.Clone(), base.Clone(),
		{10, 10, 10, 10}, {-5, 0, 5, 0}, {0, 9, 1, 7},
	}
	m, err := TrainCtx(context.Background(), Config{Rows: 7, Cols: 7, Steps: 4000, Seed: 5}, samples)
	if err != nil {
		t.Fatal(err)
	}
	r0, c0 := m.BMU(samples[0])
	for i := 1; i < 3; i++ {
		r, c := m.BMU(samples[i])
		if r != r0 || c != c0 {
			t.Fatalf("identical samples mapped to (%d,%d) and (%d,%d)", r0, c0, r, c)
		}
	}
}

func TestBMUDimMismatchPanics(t *testing.T) {
	samples, _ := twoBlobs(5, 3, 4, 9)
	m, err := TrainCtx(context.Background(), Config{Rows: 3, Cols: 3, Steps: 200, Seed: 1}, samples)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BMU with wrong dim did not panic")
		}
	}()
	m.BMU(vecmath.Vector{1, 2})
}

// TestTrainingReducesQuantizationError trains from random weights:
// 1-D samples cannot support a PCA plane.
func TestTrainingReducesQuantizationError(t *testing.T) {
	samples, _ := twoBlobs(15, 1, 6, 11)
	short, err := TrainCtx(context.Background(), Config{Rows: 6, Cols: 6, Steps: 30, Seed: 2}, samples)
	if err != nil {
		t.Fatal(err)
	}
	long, err := TrainCtx(context.Background(), Config{Rows: 6, Cols: 6, Steps: 6000, Seed: 2}, samples)
	if err != nil {
		t.Fatal(err)
	}
	qShort := short.QuantizationError(samples)
	qLong := long.QuantizationError(samples)
	if qLong >= qShort {
		t.Fatalf("quantization error did not improve with training: %v -> %v", qShort, qLong)
	}
}

func TestHitMapCountsSamples(t *testing.T) {
	samples, _ := twoBlobs(8, 4, 6, 13)
	m, err := TrainCtx(context.Background(), Config{Rows: 5, Cols: 5, Steps: 2000, Seed: 3}, samples)
	if err != nil {
		t.Fatal(err)
	}
	hits := m.HitMap(samples)
	total := 0
	for _, row := range hits {
		for _, h := range row {
			if h < 0 {
				t.Fatal("negative hit count")
			}
			total += h
		}
	}
	if total != len(samples) {
		t.Fatalf("hit map total = %d, want %d", total, len(samples))
	}
}

func TestPlacementsMatchBMU(t *testing.T) {
	samples, _ := twoBlobs(6, 3, 5, 17)
	m, err := TrainCtx(context.Background(), Config{Rows: 4, Cols: 4, Steps: 1000, Seed: 8}, samples)
	if err != nil {
		t.Fatal(err)
	}
	ps := m.Placements(samples)
	for i, s := range samples {
		r, c := m.BMU(s)
		if ps[i][0] != float64(r) || ps[i][1] != float64(c) {
			t.Fatalf("placement %d = %v, BMU = (%d,%d)", i, ps[i], r, c)
		}
	}
}

func TestQualityMeasuresInRange(t *testing.T) {
	samples, _ := twoBlobs(10, 4, 5, 19)
	m, err := TrainCtx(context.Background(), Config{Rows: 6, Cols: 6, Steps: 4000, Seed: 4}, samples)
	if err != nil {
		t.Fatal(err)
	}
	q := m.QuantizationError(samples)
	if q < 0 || math.IsNaN(q) {
		t.Fatalf("quantization error = %v", q)
	}
	te := m.TopographicError(samples)
	if te < 0 || te > 1 {
		t.Fatalf("topographic error = %v, want [0,1]", te)
	}
	// A well-trained map on easy data should have a small
	// topographic error.
	if te > 0.5 {
		t.Fatalf("topographic error %v suspiciously high for easy data", te)
	}
}

func TestQualityOnEmptyInput(t *testing.T) {
	samples, _ := twoBlobs(5, 3, 5, 23)
	m, err := TrainCtx(context.Background(), Config{Rows: 3, Cols: 3, Steps: 100, Seed: 6}, samples)
	if err != nil {
		t.Fatal(err)
	}
	if m.QuantizationError(nil) != 0 || m.TopographicError(nil) != 0 {
		t.Fatal("quality measures on empty input should be 0")
	}
}

func TestUMatrixShapeAndPositivity(t *testing.T) {
	samples, _ := twoBlobs(10, 4, 8, 29)
	m, err := TrainCtx(context.Background(), Config{Rows: 6, Cols: 5, Steps: 3000, Seed: 9}, samples)
	if err != nil {
		t.Fatal(err)
	}
	u := m.UMatrix()
	if len(u) != 6 || len(u[0]) != 5 {
		t.Fatalf("U-matrix shape = %dx%d, want 6x5", len(u), len(u[0]))
	}
	for _, row := range u {
		for _, v := range row {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("invalid U-matrix value %v", v)
			}
		}
	}
}

// TestInitModes trains from each initialization: the PCA plane on
// 4-D blobs, and the random fallback on the same blobs' first
// coordinate, since 1-D samples cannot support a plane.
func TestInitModes(t *testing.T) {
	samples, _ := twoBlobs(10, 4, 6, 31)
	oneD := make([]vecmath.Vector, len(samples))
	for i, s := range samples {
		oneD[i] = s[:1]
	}
	for _, tc := range []struct {
		name    string
		samples []vecmath.Vector
		pca     bool
	}{{"pca", samples, true}, {"random", oneD, false}} {
		cfg := Config{Rows: 5, Cols: 5, Steps: 2000, Seed: 10}
		if got := newMap(cfg.Rows, cfg.Cols, len(tc.samples[0])).initPCA(tc.samples); got != tc.pca {
			t.Fatalf("init %s: initPCA = %v, want %v", tc.name, got, tc.pca)
		}
		m, err := TrainCtx(context.Background(), cfg, tc.samples)
		if err != nil {
			t.Fatalf("init %s: %v", tc.name, err)
		}
		if m.QuantizationError(tc.samples) > 3 {
			t.Fatalf("init %s: poor final fit", tc.name)
		}
	}
}

func TestPCAInitFallsBackOnTinyData(t *testing.T) {
	// Two samples cannot support a PCA plane; TrainCtx must still work.
	samples := []vecmath.Vector{{1, 2, 3}, {4, 5, 6}}
	m, err := TrainCtx(context.Background(), Config{Rows: 3, Cols: 3, Steps: 300, Seed: 12}, samples)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 3 {
		t.Fatalf("dim = %d, want 3", m.Dim())
	}
}

func TestOneDimensionalInput(t *testing.T) {
	samples := []vecmath.Vector{{0}, {0.1}, {5}, {5.1}, {10}}
	m, err := TrainCtx(context.Background(), Config{Rows: 4, Cols: 4, Steps: 1500, Seed: 14}, samples)
	if err != nil {
		t.Fatal(err)
	}
	// Near-identical inputs must land on the same or adjacent cells.
	r0, c0 := m.BMU(samples[0])
	r1, c1 := m.BMU(samples[1])
	if abs(r0-r1) > 1 || abs(c0-c1) > 1 {
		t.Fatalf("near-identical 1-D inputs far apart: (%d,%d) vs (%d,%d)", r0, c0, r1, c1)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestDecaySchedulesMonotone(t *testing.T) {
	prev := math.Inf(1)
	for i := 0; i <= 100; i++ {
		t2 := float64(i) / 100
		v := anneal(alpha0, alphaFloor, t2)
		if v > prev+1e-15 {
			t.Fatalf("schedule not monotone at t=%v: %v > %v", t2, v, prev)
		}
		if v < alphaFloor-1e-15 {
			t.Fatalf("schedule fell below floor at t=%v: %v", t2, v)
		}
		prev = v
	}
}

func TestDecayStartsAtInitialValue(t *testing.T) {
	if v := anneal(0.7, alphaFloor, 0); math.Abs(v-0.7) > 1e-12 {
		t.Fatalf("schedule at t=0 is %v, want 0.7", v)
	}
}

func TestDecayBelowFloorClamps(t *testing.T) {
	if v := anneal(0.005, alphaFloor, 0.5); v != alphaFloor {
		t.Fatalf("v0 below floor should clamp to floor, got %v", v)
	}
}

func TestLocationVectors(t *testing.T) {
	samples, _ := twoBlobs(5, 3, 5, 37)
	m, err := TrainCtx(context.Background(), Config{Rows: 3, Cols: 4, Steps: 100, Seed: 15}, samples)
	if err != nil {
		t.Fatal(err)
	}
	loc := m.Location(2, 3)
	if loc[0] != 2 || loc[1] != 3 {
		t.Fatalf("Location(2,3) = %v", loc)
	}
}
