package som

import (
	"context"
	"fmt"
	"math"
	"testing"

	"hmeans/internal/chars"
	"hmeans/internal/obs"
	"hmeans/internal/rng"
	"hmeans/internal/simbench"
	"hmeans/internal/vecmath"
)

// suite500Counters returns the 500-workload, 40-counter synthetic
// suite (16 blobs) as the pipeline feeds it to the SOM: standardized
// by chars.PreprocessCounters. The samples have full rank, so
// training runs in the full dimension.
func suite500Counters(tb testing.TB, seed uint64) []vecmath.Vector {
	tb.Helper()
	pts := simbench.SyntheticSpec{N: 500, Dims: 40, Clusters: 16, Seed: seed}.Points()
	names, feats := make([]string, len(pts)), make([]string, len(pts[0]))
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		names[i], rows[i] = fmt.Sprintf("w%03d", i), p
	}
	for j := range feats {
		feats[j] = fmt.Sprintf("c%02d", j)
	}
	tab, err := chars.NewTable(names, feats, rows)
	if err != nil {
		tb.Fatal(err)
	}
	prepared, _ := chars.PreprocessCounters(tab)
	return prepared.Vectors()
}

// trainOracle is the step loop as it stood before the seeded search:
// a brute BMU scan at every step, then per unit a difference pass and
// an AXPY, with the annealing logarithm taken at every step. The
// production loop must reproduce its weights bit for bit.
func (m *Map) trainOracle(c Config, samples []vecmath.Vector, r *rng.Source) {
	anneal := func(v0, floor, t float64) float64 {
		if v0 <= floor {
			return floor
		}
		v := v0 * math.Exp(-t*math.Log(v0/floor))
		if v < floor {
			return floor
		}
		return v
	}
	sigma0 := float64(max(c.Rows, c.Cols)) / 2
	diff := vecmath.NewVector(m.dim)
	for n := 0; n < c.Steps; n++ {
		t := float64(n) / float64(c.Steps)
		alpha := anneal(alpha0, alphaFloor, t)
		sigma := anneal(sigma0, sigmaFloor, t)
		x := samples[r.Intn(len(samples))]
		u, _ := m.bmuBrute(x)
		br, bc := u/m.cols, u%m.cols
		reach := int(math.Ceil(3 * sigma))
		inv2s2 := 1 / (2 * sigma * sigma)
		for gr := max(0, br-reach); gr <= min(m.rows-1, br+reach); gr++ {
			for gc := max(0, bc-reach); gc <= min(m.cols-1, bc+reach); gc++ {
				dr, dc := float64(gr-br), float64(gc-bc)
				h := alpha * math.Exp(-(dr*dr+dc*dc)*inv2s2)
				if h < 1e-9 {
					continue
				}
				w := m.weights[gr*m.cols+gc]
				for j := range w {
					diff[j] = x[j] - w[j]
				}
				w.AXPYInPlace(h, diff)
			}
		}
	}
}

// stepLoopMatchesOracle runs trainSequential and trainOracle from
// copies of init on the same samples with cfg's seed and reports
// whether they train bit-identical weights.
func stepLoopMatchesOracle(t *testing.T, cfg Config, init *Map, samples []vecmath.Vector) bool {
	t.Helper()
	c := cfg.withDefaults()
	got, want := newMap(init.rows, init.cols, init.dim), newMap(init.rows, init.cols, init.dim)
	copy(got.flat, init.flat)
	copy(want.flat, init.flat)
	if err := got.trainSequential(context.Background(), c, samples, rng.New(c.Seed), nil, nil); err != nil {
		t.Fatal(err)
	}
	want.trainOracle(c, samples, rng.New(c.Seed))
	return equalMaps(t, got, want)
}

// eachKernel runs f as a subtest with each path this CPU can run: the
// AVX2 weight update and BMU search where useAVX2 chose them, then the
// Go loops, which it forces by clearing useAVX2 for the subtest.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	chosen := useAVX2
	defer func() { useAVX2 = chosen }()
	for _, avx2 := range []bool{true, false} {
		if avx2 && !chosen {
			continue
		}
		useAVX2 = avx2
		name := "kernel=go"
		if avx2 {
			name = "kernel=avx2"
		}
		t.Run(name, f)
	}
}

// spanProjection returns the initial map and the samples in
// coordinates of the samples' affine span: the vectors the step loop
// runs on when training takes the span path.
func spanProjection(tb testing.TB, cfg Config, samples []vecmath.Vector) (*Map, []vecmath.Vector) {
	tb.Helper()
	st := testStart(tb, cfg, samples)
	if st.init == nil || st.basis == nil {
		tb.Fatal("the samples take the random start or span the full dimension")
	}
	pm := newMap(st.rows, st.cols, len(st.basis))
	copy(pm.flat, st.init)
	return pm, st.coords
}

// TestTrainMatchesOracleInSpan: on the case study's span coordinates —
// counters and bits, the pipeline's grid and 10,000 steps — the seeded
// search and the one-pass update train the oracle's weights bit for
// bit.
func TestTrainMatchesOracleInSpan(t *testing.T) {
	bits := caseStudyBits(t)
	rows, cols := GridFor(len(bits))
	bitsInit, bitsCoords := spanProjection(t, Config{Rows: rows, Cols: cols}, bits)
	eachKernel(t, func(t *testing.T) {
		for seed := uint64(1); seed <= 5; seed++ {
			cfg := Config{Rows: rows, Cols: cols, Seed: seed}
			counters := caseStudyCounters(t, seed)
			init, coords := spanProjection(t, cfg, counters)
			if !stepLoopMatchesOracle(t, cfg, init, coords) {
				t.Fatalf("counters seed %d: weights differ from the brute-plus-AXPY loop", seed)
			}
			if !stepLoopMatchesOracle(t, cfg, bitsInit, bitsCoords) {
				t.Fatalf("bits seed %d: weights differ from the brute-plus-AXPY loop", seed)
			}
		}
	})
}

// TestTrainMatchesOracleFullDimension: the same in the full dimension,
// at suite-500's scale — 500 × 40 standardized counters of full rank,
// the 12 × 10 grid, 60,000 steps.
func TestTrainMatchesOracleFullDimension(t *testing.T) {
	seeds := uint64(3)
	if testing.Short() || raceEnabled {
		seeds = 1
	}
	samples := suite500Counters(t, 1)
	rows, cols := GridFor(len(samples))
	if rows != 12 || cols != 10 {
		t.Fatalf("suite-500 grid %d×%d, want 12×10", rows, cols)
	}
	init := pcaInitMap(t, Config{Rows: rows, Cols: cols}, samples)
	if r := spanRank(t, Config{Rows: rows, Cols: cols}, samples); r != init.dim {
		t.Fatalf("span rank %d of %d: suite-500 must train in the full dimension", r, init.dim)
	}
	eachKernel(t, func(t *testing.T) {
		for seed := uint64(1); seed <= seeds; seed++ {
			if !stepLoopMatchesOracle(t, Config{Rows: rows, Cols: cols, Seed: seed}, init, samples) {
				t.Fatalf("suite-500 seed %d: weights differ from the brute-plus-AXPY loop", seed)
			}
		}
	})
}

// TestTrainWorkCounters: with telemetry on, training records the
// coordinates its BMU searches evaluated and its kernel exp calls. On
// the case study the seeded search evaluates fewer coordinates than
// the brute scan's steps × units × train_dim. A table's kernel
// schedule makes its exps once, when it is built, and a training
// without a table makes the same exps in its own blocks every run.
func TestTrainWorkCounters(t *testing.T) {
	samples := caseStudyCounters(t, 1)
	rows, cols := GridFor(len(samples))
	o := obs.New(obs.NewCollector())
	cfg := Config{Rows: rows, Cols: cols, Steps: 10000, Seed: 1, Starts: NewStarts(1), Obs: o}
	if _, err := TrainCtx(context.Background(), cfg, samples); err != nil {
		t.Fatal(err)
	}
	trainDim := spanRank(t, cfg, samples)
	metrics := o.Metrics()
	steps := metrics.Counter("som.steps").Value()
	coords := metrics.Counter("som.bmu_coords").Value()
	brute := steps * int64(rows*cols*trainDim)
	if steps != 10000 || coords <= 0 || coords >= brute {
		t.Fatalf("som.steps %d, som.bmu_coords %d; want 10000 steps and 0 < coords < %d", steps, coords, brute)
	}
	if exps := metrics.Counter("som.kernel_exps").Value(); exps != caseStudyKernelExps {
		t.Fatalf("som.kernel_exps %d after the schedule's build, want %d", exps, caseStudyKernelExps)
	}
	// A second run reads the table's schedule: it adds its coordinates
	// and no exp.
	if _, err := TrainCtx(context.Background(), cfg, samples); err != nil {
		t.Fatal(err)
	}
	if got := metrics.Counter("som.bmu_coords").Value(); got != 2*coords {
		t.Fatalf("two runs recorded %d coordinates, want %d", got, 2*coords)
	}
	if got := metrics.Counter("som.kernel_exps").Value(); got != caseStudyKernelExps {
		t.Fatalf("a run that reused the schedule moved som.kernel_exps to %d, want %d", got, caseStudyKernelExps)
	}
	built, reused := metrics.Counter("som.schedule.built").Value(), metrics.Counter("som.schedule.reused").Value()
	if built != 1 || reused != 1 {
		t.Fatalf("som.schedule.built %d, som.schedule.reused %d; want 1 and 1", built, reused)
	}
	// Without a table each run fills every step's entries itself.
	cfg.Starts, cfg.Obs = nil, obs.New(obs.NewCollector())
	for run := int64(1); run <= 2; run++ {
		if _, err := TrainCtx(context.Background(), cfg, samples); err != nil {
			t.Fatal(err)
		}
		if got := cfg.Obs.Metrics().Counter("som.kernel_exps").Value(); got != run*caseStudyKernelExps {
			t.Fatalf("%d runs without a table recorded %d kernel exps, want %d", run, got, run*caseStudyKernelExps)
		}
	}
}

// caseStudyKernelExps is the number of entries, and of exps, in the
// kernel schedule of 10,000 steps on the case study's 5 × 4 grid: 11.0
// a step, one for each of the grid's 14 distinct squared distances up
// to the largest in the step's window.
const caseStudyKernelExps = 109660

// updateOracle is trainOracle's neighbourhood update for one step: an
// exp for every unit of the clipped window, then the difference pass
// and the AXPY.
func (m *Map) updateOracle(x vecmath.Vector, br, bc int, alpha, sigma float64) {
	diff := vecmath.NewVector(m.dim)
	reach := int(math.Ceil(3 * sigma))
	inv2s2 := 1 / (2 * sigma * sigma)
	for gr := max(0, br-reach); gr <= min(m.rows-1, br+reach); gr++ {
		for gc := max(0, bc-reach); gc <= min(m.cols-1, bc+reach); gc++ {
			dr, dc := float64(gr-br), float64(gc-bc)
			h := alpha * math.Exp(-(dr*dr+dc*dc)*inv2s2)
			if h < 1e-9 {
				continue
			}
			w := m.weights[gr*m.cols+gc]
			for j := range w {
				diff[j] = x[j] - w[j]
			}
			w.AXPYInPlace(h, diff)
		}
	}
}

// TestUpdateNeighbourhoodEveryCell: at every BMU cell of the case
// study's 5 × 4 grid (10,000 steps) and suite-500's 12 × 10 (60,000
// steps), one update read from the kernel schedule moves a copy of a
// map's weights bit for bit as the per-unit-exp update moves another
// with that step's annealed α and σ. It takes step 0, every step at
// which the reach ⌈3σ⌉ changes, the first step at which the window's
// farthest unit has a kernel value below 1e-9, which both updates
// skip, and the last step. σ approaches its floor only as the step
// count does, so that last step is the one nearest it. Dimensions 1,
// 12 and 42 give the update a short and a long row: all tail, all
// groups of four, and both, in the AVX2 kernel. It runs through each
// kernel.
func TestUpdateNeighbourhoodEveryCell(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for _, g := range []struct{ rows, cols, steps int }{{5, 4, 10000}, {12, 10, 60000}} {
			s, err := buildSchedule(context.Background(), newKernelPlan(g.rows, g.cols, g.steps))
			if err != nil || s == nil {
				t.Fatalf("%d×%d grid: schedule %v, error %v", g.rows, g.cols, s, err)
			}
			// Each step's α, σ and reach as trainOracle computes them.
			sigma0 := float64(max(g.rows, g.cols)) / 2
			annealed := func(n int) (alpha, sigma float64, reach int) {
				tn := float64(n) / float64(g.steps)
				alpha = anneal(alpha0, alphaFloor, math.Log(alpha0/alphaFloor), tn)
				sigma = anneal(sigma0, sigmaFloor, math.Log(sigma0/sigmaFloor), tn)
				return alpha, sigma, int(math.Ceil(3 * sigma))
			}
			steps := []int{0}
			skip := false
			for n := 1; n < g.steps; n++ {
				alpha, sigma, reach := annealed(n)
				_, _, prev := annealed(n - 1)
				ra, ca := min(reach, g.rows-1), min(reach, g.cols-1)
				below := alpha*math.Exp(-float64(ra*ra+ca*ca)/(2*sigma*sigma)) < 1e-9
				if reach != prev || below && !skip {
					steps = append(steps, n)
					skip = skip || below
				}
			}
			if !skip {
				t.Fatalf("%d×%d grid: no step has a kernel value below 1e-9", g.rows, g.cols)
			}
			steps = append(steps, g.steps-1)
			for _, dim := range []int{1, 12, 42} {
				r := rng.New(uint64(g.rows*100 + dim))
				init := newMap(g.rows, g.cols, dim)
				for j := range init.flat {
					init.flat[j] = r.NormFloat64()
				}
				x := vecmath.NewVector(dim)
				for j := range x {
					x[j] = 3 * r.NormFloat64()
				}
				got, want := newMap(g.rows, g.cols, dim), newMap(g.rows, g.cols, dim)
				for _, n := range steps {
					alpha, sigma, _ := annealed(n)
					for u := 0; u < g.rows*g.cols; u++ {
						br, bc := u/g.cols, u%g.cols
						copy(got.flat, init.flat)
						copy(want.flat, init.flat)
						got.update(x, br, bc, s.reach[n], s.kern[s.off[n]:s.off[n+1]], s.slot)
						want.updateOracle(x, br, bc, alpha, sigma)
						if !equalMaps(t, got, want) {
							t.Fatalf("%d×%d grid, dim %d, step %d (σ %v, α %v), BMU (%d, %d): weights differ from the per-unit-exp update", g.rows, g.cols, dim, n, sigma, alpha, br, bc)
						}
					}
				}
			}
		}
	})
}
