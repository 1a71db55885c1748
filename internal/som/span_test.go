package som

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"hmeans/internal/chars"
	"hmeans/internal/obs"
	"hmeans/internal/rng"
	"hmeans/internal/simbench"
	"hmeans/internal/vecmath"
)

// caseStudyCounters returns the paper's 13-workload case study as the
// pipeline feeds it to the SOM: SAR counters sampled on machine A with
// the given seed, standardized and filtered.
func caseStudyCounters(tb testing.TB, seed uint64) []vecmath.Vector {
	tb.Helper()
	ws, _, err := simbench.CalibratedSuite()
	if err != nil {
		tb.Fatal(err)
	}
	tab, err := simbench.SARTable(ws, simbench.MachineA(), simbench.SARSpec{Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	prepared, _ := chars.PreprocessCounters(tab)
	return prepared.Vectors()
}

// caseStudyBits returns the case study's method-utilization bit
// vectors, filtered and standardized as the pipeline does.
func caseStudyBits(tb testing.TB) []vecmath.Vector {
	tb.Helper()
	ws, _, err := simbench.CalibratedSuite()
	if err != nil {
		tb.Fatal(err)
	}
	tab, err := simbench.HprofTable(ws)
	if err != nil {
		tb.Fatal(err)
	}
	prepared, _ := chars.PreprocessBits(tab)
	return prepared.Vectors()
}

// pcaInitMap returns the untrained map TrainCtx starts from on its PCA
// path. The initialization depends on the grid and the samples but not
// on the seed, so tests build it once per sample set.
func pcaInitMap(tb testing.TB, cfg Config, samples []vecmath.Vector) *Map {
	tb.Helper()
	c := cfg.withDefaults()
	m := newMap(c.Rows, c.Cols, len(samples[0]))
	if !m.initPCA(samples) {
		tb.Fatal("PCA initialization failed")
	}
	return m
}

// trainFullDim is the reference the span path is proven against: the
// trainSequential loop run on the full-dimension vectors, from a copy
// of the same initial map.
func trainFullDim(tb testing.TB, cfg Config, init *Map, samples []vecmath.Vector) *Map {
	tb.Helper()
	c := cfg.withDefaults()
	m := newMap(init.rows, init.cols, init.dim)
	copy(m.flat, init.flat)
	if err := m.trainSequential(context.Background(), c, samples, rng.New(c.Seed), nil, nil); err != nil {
		tb.Fatal(err)
	}
	m.setBMUSearch(bmuSearchAuto)
	return m
}

// spanRank returns the rank the span path trains at from init, or the
// full dimension when the span has full rank.
func spanRank(init *Map, samples []vecmath.Vector) int {
	if b := newSpanBasis(samples, init.weights); b != nil {
		return len(b.q)
	}
	return init.dim
}

// assertSpanEquivalent checks a span-trained map against the
// full-dimension reference: every sample has the same BMU, the hit
// maps agree, every weight agrees within 1e-12 of the largest weight
// magnitude, and every soft position within 1e-12 grid cells.
func assertSpanEquivalent(t *testing.T, label string, got, want *Map, samples []vecmath.Vector) {
	t.Helper()
	for i, s := range samples {
		gr, gc := got.BMU(s)
		wr, wc := want.BMU(s)
		if gr != wr || gc != wc {
			t.Fatalf("%s: sample %d BMU (%d,%d), full-dimension (%d,%d)", label, i, gr, gc, wr, wc)
		}
	}
	gh, wh := got.HitMap(samples), want.HitMap(samples)
	for r := range wh {
		for c := range wh[r] {
			if gh[r][c] != wh[r][c] {
				t.Fatalf("%s: hit map (%d,%d) = %d, full-dimension %d", label, r, c, gh[r][c], wh[r][c])
			}
		}
	}
	maxW, maxDiff := 0.0, 0.0
	for u := range want.weights {
		for j, w := range want.weights[u] {
			maxW = math.Max(maxW, math.Abs(w))
			maxDiff = math.Max(maxDiff, math.Abs(got.weights[u][j]-w))
		}
	}
	if maxDiff > 1e-12*maxW {
		t.Fatalf("%s: weights differ by %g, max |w| %g", label, maxDiff, maxW)
	}
	for i, s := range samples {
		gp, wp := got.SoftPosition(s), want.SoftPosition(s)
		for j := range wp {
			if d := math.Abs(gp[j] - wp[j]); d > 1e-12 {
				t.Fatalf("%s: sample %d soft position %v, full-dimension %v (|Δ| = %g)", label, i, gp, wp, d)
			}
		}
	}
}

// TestSpanTrainingMatchesFullDimension is the equivalence proof of the
// span path on both of the paper's characterizations, on the grid the
// pipeline uses for 13 workloads. Every seed trains a 1,000-step
// schedule; the first seeds also train the pipeline's 10,000 steps,
// which cost ten times as much in the full-dimension reference. SAR
// data cycles through 20 sampling seeds; the SOM seed never repeats.
func TestSpanTrainingMatchesFullDimension(t *testing.T) {
	seeds, fullSeeds := 200, 10
	if testing.Short() || raceEnabled {
		seeds, fullSeeds = 20, 2
	}
	type input struct {
		name    string
		samples []vecmath.Vector
		init    *Map
	}
	bits := caseStudyBits(t)
	rows, cols := GridFor(len(bits))
	grid := Config{Rows: rows, Cols: cols}
	inputs := []input{{"bits", bits, pcaInitMap(t, grid, bits)}}
	for s := uint64(1); s <= 20; s++ {
		counters := caseStudyCounters(t, s)
		inputs = append(inputs, input{fmt.Sprintf("counters(SAR seed %d)", s), counters, pcaInitMap(t, grid, counters)})
	}
	for _, in := range inputs {
		// The five SciMark2 kernels share one method profile, so the
		// bit vectors span fewer than n − 1 directions.
		n, d := len(in.samples), len(in.samples[0])
		if r := spanRank(in.init, in.samples); r > n-1 || r >= d {
			t.Fatalf("%s: span rank %d, want at most n-1 = %d and below d = %d", in.name, r, n-1, d)
		}
	}
	for seed := 1; seed <= seeds; seed++ {
		steps := []int{1000}
		if seed <= fullSeeds {
			steps = append(steps, 0) // the default, 500 per unit
		}
		for _, st := range steps {
			cfg := Config{Rows: rows, Cols: cols, Steps: st, Seed: uint64(seed)}
			for _, in := range []input{inputs[0], inputs[1+(seed-1)%20]} {
				got, err := TrainCtx(context.Background(), cfg, in.samples)
				if err != nil {
					t.Fatal(err)
				}
				want := trainFullDim(t, cfg, in.init, in.samples)
				assertSpanEquivalent(t, fmt.Sprintf("%s SOM seed %d steps %d", in.name, seed, st), got, want, in.samples)
			}
		}
	}
}

// TestSpanTrainingClonedWorkload covers the paper's redundancy case: a
// cloned workload adds a sample but no direction, so the span rank
// drops below n − 1 and training still matches the full dimension.
func TestSpanTrainingClonedWorkload(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		base := caseStudyCounters(t, seed)
		samples := append(append([]vecmath.Vector(nil), base...), base[2].Clone(), base[7].Clone())
		rows, cols := GridFor(len(samples))
		cfg := Config{Rows: rows, Cols: cols, Seed: seed}
		init := pcaInitMap(t, cfg, samples)
		if r := spanRank(init, samples); r != len(base)-1 {
			t.Fatalf("seed %d: span rank %d with clones, want %d", seed, r, len(base)-1)
		}
		got, err := TrainCtx(context.Background(), cfg, samples)
		if err != nil {
			t.Fatal(err)
		}
		assertSpanEquivalent(t, "cloned", got, trainFullDim(t, cfg, init, samples), samples)
	}
}

// TestSpanTrainingCollinearSamples covers rank-1 data: the PCA
// initialization's second axis then lies outside the samples' span,
// and the basis must take it in as a direction of its own.
func TestSpanTrainingCollinearSamples(t *testing.T) {
	dir := vecmath.Vector{1, -2, 0.5, 3, 0, 1.5, -1, 2}
	var samples []vecmath.Vector
	for _, a := range []float64{-2, -1.5, 0, 0.5, 1, 3} {
		samples = append(samples, vecmath.Vector{4, 4, 4, 4, 4, 4, 4, 4}.Add(dir.Scale(a)))
	}
	cfg := Config{Rows: 4, Cols: 3, Steps: 3000, Seed: 5}
	init := pcaInitMap(t, cfg, samples)
	if r := spanRank(init, samples); r != 2 {
		t.Fatalf("span rank %d, want 2 (the samples' line plus the init's second axis)", r)
	}
	got, err := TrainCtx(context.Background(), cfg, samples)
	if err != nil {
		t.Fatal(err)
	}
	assertSpanEquivalent(t, "collinear", got, trainFullDim(t, cfg, init, samples), samples)
}

// TestFullRankSequentialUnchanged pins the n − 1 ≥ d case to the
// full-dimension loop bit for bit: a full-rank span gives no basis,
// and training takes the loop it always took.
func TestFullRankSequentialUnchanged(t *testing.T) {
	samples := benchSamplesExact(40, 12)
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := Config{Rows: 5, Cols: 4, Steps: 4000, Seed: seed}
		init := pcaInitMap(t, cfg, samples)
		if b := newSpanBasis(samples, init.weights); b != nil {
			t.Fatalf("seed %d: full-rank samples gave a %d-vector basis", seed, len(b.q))
		}
		got, err := TrainCtx(context.Background(), cfg, samples)
		if err != nil {
			t.Fatal(err)
		}
		if !equalMaps(t, got, trainFullDim(t, cfg, init, samples)) {
			t.Fatalf("seed %d: full-rank training is not bit-identical to the full-dimension loop", seed)
		}
	}
}

// TestTinySampleSetsFallBackToRandomInit: below three samples the PCA
// initialization fails, the map starts from random weights, and
// training runs in the full dimension on the random-init path.
func TestTinySampleSetsFallBackToRandomInit(t *testing.T) {
	samples := []vecmath.Vector{{1, 0, 2, 0, 1}, {0, 3, 1, 1, 0}}
	cfg := Config{Rows: 3, Cols: 3, Steps: 500, Seed: 9}
	c := cfg.withDefaults()
	want := newMap(c.Rows, c.Cols, 5)
	if want.initPCA(samples) {
		t.Fatal("PCA initialization succeeded on two samples")
	}
	r := rng.New(c.Seed)
	want.initRandom(samples, r)
	if err := want.trainSequential(context.Background(), c, samples, r, nil, nil); err != nil {
		t.Fatal(err)
	}
	got, err := TrainCtx(context.Background(), cfg, samples)
	if err != nil {
		t.Fatal(err)
	}
	if !equalMaps(t, got, want) {
		t.Fatal("two-sample training differs from the random-init full-dimension loop")
	}
}

// cancelAtStep is an obs sink that cancels a context once a som.step
// checkpoint at or past step has been emitted, so a test can fire a
// context in the middle of sequential training.
type cancelAtStep struct {
	obs.NopSink
	step   int
	cancel context.CancelFunc
}

func (s cancelAtStep) WriteEvent(e obs.EventData) {
	if e.Name != "som.step" {
		return
	}
	for _, a := range e.Attrs {
		if a.Key == "step" && a.Val.(int) >= s.step {
			s.cancel()
		}
	}
}

// TestSpanTrainingCancelled: a context that fires mid-training stops
// the span path at its next checkpoint with the wrapped context error.
func TestSpanTrainingCancelled(t *testing.T) {
	samples := caseStudyCounters(t, 1)
	rows, cols := GridFor(len(samples))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Checkpoints fall every 10000/32 = 312 steps and the context is
	// polled every 256, so cancelling at the step-936 checkpoint stops
	// training at step 1024.
	cfg := Config{Rows: rows, Cols: cols, Seed: 1, Steps: 10000,
		Obs: obs.New(cancelAtStep{step: 900, cancel: cancel})}
	if r := spanRank(pcaInitMap(t, cfg, samples), samples); r >= len(samples[0]) {
		t.Fatalf("span rank %d: the case study must take the span path", r)
	}
	m, err := TrainCtx(ctx, cfg, samples)
	if m != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got map %v, error %v; want no map and context.Canceled", m != nil, err)
	}
	const want = "som: training cancelled at step 1024 of 10000: context canceled"
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

// equalMaps reports whether two maps hold bit-identical weights —
// Float64bits equality, not approximate comparison.
func equalMaps(t *testing.T, a, b *Map) bool {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.Dim() != b.Dim() {
		return false
	}
	for r := 0; r < a.Rows(); r++ {
		for c := 0; c < a.Cols(); c++ {
			wa, wb := a.Weight(r, c), b.Weight(r, c)
			for j := range wa {
				if math.Float64bits(wa[j]) != math.Float64bits(wb[j]) {
					return false
				}
			}
		}
	}
	return true
}

// TestSequentialIgnoresParallelism: training runs on one goroutine;
// the deprecated Parallelism field must not change its result.
func TestSequentialIgnoresParallelism(t *testing.T) {
	samples, _ := twoBlobs(10, 6, 5, 2)
	a, err := TrainCtx(context.Background(), Config{Rows: 5, Cols: 4, Steps: 3000, Seed: 4}, samples)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainCtx(context.Background(), Config{Rows: 5, Cols: 4, Steps: 3000, Seed: 4, Parallelism: 8}, samples)
	if err != nil {
		t.Fatal(err)
	}
	if !equalMaps(t, a, b) {
		t.Fatal("sequential training changed under Parallelism")
	}
}
