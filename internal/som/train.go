package som

import (
	"context"
	"fmt"

	"hmeans/internal/obs"
	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

// TrainCtx builds and trains a map on the sample set according to
// cfg. Samples must be non-empty and rectangular. The input slices are
// read but never modified or retained. Training takes its start — the
// seed-free PCA initialization and span projection, see Start — from
// cfg.Starts, or builds it when the table holds none, then trains from
// it with cfg's seed. Building a start polls the context inside its
// PCA, and training checks it every few hundred steps; on cancellation
// the start or the partially trained map is discarded and the
// context's error returned. A nil context never fires.
func TrainCtx(ctx context.Context, cfg Config, samples []vecmath.Vector) (*Map, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(samples) == 0 {
		return nil, ErrNoData
	}
	dim := len(samples[0])
	if dim == 0 {
		return nil, fmt.Errorf("som: zero-dimensional samples")
	}
	for i, s := range samples {
		if len(s) != dim {
			return nil, fmt.Errorf("som: sample %d has dim %d, want %d", i, len(s), dim)
		}
	}
	c := cfg.withDefaults()
	o := obs.Or(c.Obs)
	sp := o.StartSpan("som.train",
		obs.KV("rows", c.Rows), obs.KV("cols", c.Cols),
		obs.KV("samples", len(samples)), obs.KV("dim", dim))
	defer sp.End()
	st, err := c.Starts.start(ctx, c.Rows, c.Cols, samples, o, sp)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("train_dim", st.trainDim())
	return st.train(ctx, c, samples, o, sp)
}

// cancelCheckSteps is the sequential-training cancellation stride:
// the context is polled every this many steps, bounding the latency
// of a cancellation to a few hundred cheap weight updates.
const cancelCheckSteps = 256

// trainSequential runs the classic on-line SOM loop: at every step a
// random sample is presented, its BMU located, and the BMU
// neighbourhood pulled toward the sample with the Gaussian kernel
// h_ci(n) = α(n)·exp(−‖r_c − r_i‖²/2σ²(n)).
// The BMU search is seeded with the unit the same sample won at its
// previous presentation (bmuSeeded), which returns bmuBrute's unit
// with less work. The kernel depends on the grid, the step count and
// the step alone, so the loop reads it from a schedule: c.Starts's
// shared one, or, without a shared one, its own, filled one block of
// cancelCheckSteps steps at a time. When an observer is active a
// som.step event is emitted at 32 evenly spaced checkpoints recording
// the annealed learning rate and radius — sequential training has no
// epochs, so checkpoints stand in for them — and the run's work is
// counted: som.bmu_coords, the coordinates the BMU searches
// evaluated, and som.kernel_exps, the kernel's exp calls, which a
// shared schedule makes once, when it is built.
func (m *Map) trainSequential(ctx context.Context, c Config, samples []vecmath.Vector, r *rng.Source, o *obs.Observer, sp *obs.Span) error {
	interval := 0
	if o.Active() {
		interval = c.Steps / 32
		if interval < 1 {
			interval = 1
		}
		o.Metrics().Counter("som.steps").Add(int64(c.Steps))
	}
	p := newKernelPlan(m.rows, m.cols, c.Steps)
	ks, err := c.Starts.schedule(ctx, p, o)
	if err != nil {
		return err
	}
	shared := ks != nil
	if !shared {
		ks = newSchedule(p, cancelCheckSteps)
	}
	// prev[i] is the unit sample i won at its last presentation, the
	// seed of its next search. Any unit is a valid seed; all start at 0.
	prev := make([]int, len(samples))
	var coords, exps int
	for n := 0; n < c.Steps; n++ {
		if n%cancelCheckSteps == 0 {
			if err = ctx.Err(); err != nil {
				err = fmt.Errorf("som: training cancelled at step %d of %d: %w", n, c.Steps, err)
				break
			}
			if !shared {
				exps += ks.block(p, n, min(n+cancelCheckSteps, c.Steps))
			}
		}
		if interval > 0 && n%interval == 0 {
			alpha, sigma := p.alpha(n), p.sigma(n)
			o.Metrics().Gauge("som.alpha").Set(alpha)
			o.Metrics().Gauge("som.sigma").Set(sigma)
			sp.Event("som.step", obs.KV("step", n), obs.KV("alpha", alpha), obs.KV("sigma", sigma))
		}
		i := r.Intn(len(samples))
		x := samples[i]
		u, k := m.bmuSeeded(x, prev[i])
		prev[i] = u
		coords += k
		j := n - ks.first
		m.update(x, u/m.cols, u%m.cols, ks.reach[j], ks.kern[ks.off[j]:ks.off[j+1]], ks.slot)
	}
	if o.Active() {
		o.Metrics().Counter("som.bmu_coords").Add(int64(coords))
		o.Metrics().Counter("som.kernel_exps").Add(int64(exps))
	}
	return err
}

// update moves the weights of every unit within reach of BMU (br, bc),
// on the grid, toward x: w[j] += h·(x[j] − w[j]), where
// h = kern[slot[d²]] for the unit's squared grid distance
// d² = dr² + dc² to the BMU (see schedule). A unit whose h is below
// 1e-9 is skipped, as in the tests' reference loop; near σ's floor
// the window's corners are. Each kept unit's weights move in one call
// of the AVX2 kernel where the CPU has it (useAVX2), else of
// updateGo; the two leave the same bits.
func (m *Map) update(x vecmath.Vector, br, bc, reach int, kern []float64, slot []int) {
	r0, r1 := max(0, br-reach), min(m.rows-1, br+reach)
	c0, c1 := max(0, bc-reach), min(m.cols-1, bc+reach)
	dim := m.dim
	x = x[:dim]
	for gr := r0; gr <= r1; gr++ {
		dr := gr - br
		for gc := c0; gc <= c1; gc++ {
			dc := gc - bc
			h := kern[slot[dr*dr+dc*dc]]
			if h < 1e-9 {
				continue
			}
			off := (gr*m.cols + gc) * dim
			w := m.flat[off : off+dim : off+dim]
			if useAVX2 {
				updateAVX2(w, x, h)
			} else {
				updateGo(w, x, h)
			}
		}
	}
}

// useAVX2 reports whether update runs the AVX2 kernel. On amd64 it is
// set once, at init, from CPUID and XGETBV (update_amd64.go); it stays
// false on every other GOARCH. Only tests change it, to run the Go
// loop on a CPU that has AVX2.
var useAVX2 bool

// updateGo moves w toward x: w[j] += h·(x[j] − w[j]), rounding the
// difference, the product and the sum in that order, the order of the
// tests' reference loop, whose weights training matches bit for bit.
// w must be at least as long as x. It is update's loop off amd64 and
// on CPUs without AVX2, and the reference the AVX2 kernel's tests
// compare with. On arm64 the compiler fuses the product and the sum
// (FMADDD); on amd64 it never fuses them.
func updateGo(w, x []float64, h float64) {
	w = w[:len(x)]
	for j, xj := range x {
		w[j] += h * (xj - w[j])
	}
}

// Placements maps every sample to its BMU grid position. The result
// is the 2-D point set handed to hierarchical clustering.
func (m *Map) Placements(samples []vecmath.Vector) []vecmath.Vector {
	out := make([]vecmath.Vector, len(samples))
	for i, s := range samples {
		out[i] = m.Position(s)
	}
	return out
}

// PlacementsP is Placements; workers is ignored.
//
// Deprecated: placement runs on one goroutine. Use Placements. Kept
// only because perfbench/replay.go calls it; it goes with the next
// benchmark change.
func (m *Map) PlacementsP(samples []vecmath.Vector, workers int) []vecmath.Vector {
	return m.Placements(samples)
}

// SoftPosition returns an interpolated grid position for x: the
// inverse-distance-weighted (power 4) centroid of all unit locations,
//
//	pos(x) = Σ_u (1/d(x,w_u)⁴) r_u / Σ_u (1/d(x,w_u)⁴).
//
// Unlike the hard BMU cell, the soft position is stable on weight
// plateaus: when a tight blob of samples owns a flat region of the
// map, every member's soft position collapses to (nearly) the same
// plateau centroid instead of scattering across it on microscopic
// weight noise. An exact weight match returns that unit's location.
// The weighting is self-scaling — no bandwidth parameter — because
// only the *ratios* of distances matter.
func (m *Map) SoftPosition(x vecmath.Vector) vecmath.Vector {
	if len(x) != m.dim {
		panic(fmt.Sprintf("som: input dim %d != map dim %d", len(x), m.dim))
	}
	var wsum float64
	pos := vecmath.NewVector(2)
	for u, w := range m.weights {
		d2 := vecmath.SquaredEuclidean(x, w)
		if d2 == 0 {
			return m.locations[u].Clone()
		}
		wt := 1 / (d2 * d2)
		wsum += wt
		pos.AXPYInPlace(wt, m.locations[u])
	}
	pos.ScaleInPlace(1 / wsum)
	return pos
}

// SoftPlacements maps every sample to its soft (interpolated) grid
// position; see SoftPosition.
func (m *Map) SoftPlacements(samples []vecmath.Vector) []vecmath.Vector {
	out := make([]vecmath.Vector, len(samples))
	for i, s := range samples {
		out[i] = m.SoftPosition(s)
	}
	return out
}

// HitMap returns a Rows×Cols matrix counting how many samples map to
// each unit; cells with count ≥ 2 are the "darker cells" of the
// paper's figures (particularly similar workloads).
func (m *Map) HitMap(samples []vecmath.Vector) [][]int {
	hits := make([][]int, m.rows)
	for r := range hits {
		hits[r] = make([]int, m.cols)
	}
	for _, s := range samples {
		r, c := m.BMU(s)
		hits[r][c]++
	}
	return hits
}
