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

// spanProjection returns init and the samples in coordinates of the
// samples' affine span: the vectors the step loop runs on when
// training takes the span path.
func spanProjection(tb testing.TB, init *Map, samples []vecmath.Vector) (*Map, []vecmath.Vector) {
	tb.Helper()
	b := newSpanBasis(samples, init.weights)
	if b == nil {
		tb.Fatal("the samples span the full dimension")
	}
	pm := newMap(init.rows, init.cols, len(b.q))
	scratch := vecmath.NewVector(init.dim)
	for u, w := range init.weights {
		b.project(pm.weights[u], w, scratch)
	}
	coords := make([]vecmath.Vector, len(samples))
	for i, s := range samples {
		coords[i] = vecmath.NewVector(len(b.q))
		b.project(coords[i], s, scratch)
	}
	return pm, coords
}

// TestTrainMatchesOracleInSpan: on the case study's span coordinates —
// counters and bits, the pipeline's grid and 10,000 steps — the seeded
// search and the one-pass update train the oracle's weights bit for
// bit.
func TestTrainMatchesOracleInSpan(t *testing.T) {
	bits := caseStudyBits(t)
	rows, cols := GridFor(len(bits))
	bitsInit, bitsCoords := spanProjection(t, pcaInitMap(t, Config{Rows: rows, Cols: cols}, bits), bits)
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := Config{Rows: rows, Cols: cols, Seed: seed}
		counters := caseStudyCounters(t, seed)
		init, coords := spanProjection(t, pcaInitMap(t, cfg, counters), counters)
		if !stepLoopMatchesOracle(t, cfg, init, coords) {
			t.Fatalf("counters seed %d: weights differ from the brute-plus-AXPY loop", seed)
		}
		if !stepLoopMatchesOracle(t, cfg, bitsInit, bitsCoords) {
			t.Fatalf("bits seed %d: weights differ from the brute-plus-AXPY loop", seed)
		}
	}
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
	if r := spanRank(init, samples); r != init.dim {
		t.Fatalf("span rank %d of %d: suite-500 must train in the full dimension", r, init.dim)
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		if !stepLoopMatchesOracle(t, Config{Rows: rows, Cols: cols, Seed: seed}, init, samples) {
			t.Fatalf("suite-500 seed %d: weights differ from the brute-plus-AXPY loop", seed)
		}
	}
}

// TestTrainWorkCounters: with telemetry on, training records the
// coordinates its BMU searches evaluated and its kernel exp calls. On
// the case study the seeded search evaluates fewer coordinates than
// the brute scan's steps × units × train_dim.
func TestTrainWorkCounters(t *testing.T) {
	samples := caseStudyCounters(t, 1)
	rows, cols := GridFor(len(samples))
	o := obs.New(obs.NewCollector())
	cfg := Config{Rows: rows, Cols: cols, Steps: 10000, Seed: 1, Obs: o}
	if _, err := TrainCtx(context.Background(), cfg, samples); err != nil {
		t.Fatal(err)
	}
	trainDim := spanRank(pcaInitMap(t, cfg, samples), samples)
	steps := o.Metrics().Counter("som.steps").Value()
	coords := o.Metrics().Counter("som.bmu_coords").Value()
	exps := o.Metrics().Counter("som.kernel_exps").Value()
	brute := steps * int64(rows*cols*trainDim)
	if steps != 10000 || coords <= 0 || coords >= brute {
		t.Fatalf("som.steps %d, som.bmu_coords %d; want 10000 steps and 0 < coords < %d", steps, coords, brute)
	}
	// One exp per distinct squared grid distance in each step's window:
	// 9.75 a step, against 16.8 for one exp per unit of the window.
	if exps != caseStudyKernelExps {
		t.Fatalf("som.kernel_exps %d, want %d", exps, caseStudyKernelExps)
	}
	// A second run adds its own counts once.
	if _, err := TrainCtx(context.Background(), cfg, samples); err != nil {
		t.Fatal(err)
	}
	if got := o.Metrics().Counter("som.bmu_coords").Value(); got != 2*coords {
		t.Fatalf("two runs recorded %d coordinates, want %d", got, 2*coords)
	}
	if got := o.Metrics().Counter("som.kernel_exps").Value(); got != 2*exps {
		t.Fatalf("two runs recorded %d kernel exps, want %d", got, 2*exps)
	}
}

// caseStudyKernelExps is som.kernel_exps for 10,000 steps on the case
// study's counters at seed 1.
const caseStudyKernelExps = 97522

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

// distinctSquaredDistances counts the distinct (gr − br)² + (gc − bc)²
// over the units of the step's clipped window.
func distinctSquaredDistances(rows, cols, br, bc int, sigma float64) int {
	reach := int(math.Ceil(3 * sigma))
	seen := map[int]bool{}
	for gr := max(0, br-reach); gr <= min(rows-1, br+reach); gr++ {
		for gc := max(0, bc-reach); gc <= min(cols-1, bc+reach); gc++ {
			seen[(gr-br)*(gr-br)+(gc-bc)*(gc-bc)] = true
		}
	}
	return len(seen)
}

// TestUpdateNeighbourhoodEveryCell: at every BMU cell of the case
// study's 5 × 4 grid and suite-500's 12 × 10, with σ at its floor, 1
// and its start and α at its start and its floor, one two-pass update
// moves a copy of a map's weights bit for bit as the per-unit-exp
// update moves another, and makes one exp per distinct squared grid
// distance in the clipped window. Dimensions 1, 12 and 42 give the
// unrolled update a tail alone, whole blocks, and both. At σ's floor
// the window's corners have kernel values below 1e-9, which both
// updates skip.
func TestUpdateNeighbourhoodEveryCell(t *testing.T) {
	for _, g := range []struct{ rows, cols int }{{5, 4}, {12, 10}} {
		sigma0 := float64(max(g.rows, g.cols)) / 2
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
			kern := init.newKernelTable()
			got, want := newMap(g.rows, g.cols, dim), newMap(g.rows, g.cols, dim)
			for _, sigma := range []float64{sigmaFloor, 1, sigma0} {
				for _, alpha := range []float64{alpha0, alphaFloor} {
					for u := 0; u < g.rows*g.cols; u++ {
						br, bc := u/g.cols, u%g.cols
						copy(got.flat, init.flat)
						copy(want.flat, init.flat)
						exps := got.updateNeighbourhood(x, br, bc, alpha, sigma, kern)
						want.updateOracle(x, br, bc, alpha, sigma)
						if !equalMaps(t, got, want) {
							t.Fatalf("%d×%d grid, dim %d, σ %v, α %v, BMU (%d, %d): weights differ from the per-unit-exp update", g.rows, g.cols, dim, sigma, alpha, br, bc)
						}
						if d := distinctSquaredDistances(g.rows, g.cols, br, bc, sigma); exps != d {
							t.Fatalf("%d×%d grid, σ %v, BMU (%d, %d): %d exps, want %d, one per distinct squared distance", g.rows, g.cols, sigma, br, bc, exps, d)
						}
					}
				}
			}
		}
	}
}
