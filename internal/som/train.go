package som

import (
	"context"
	"fmt"
	"math"

	"hmeans/internal/obs"
	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

// TrainCtx builds and trains a map on the sample set according to
// cfg. Samples must be non-empty and rectangular. The input slices are
// read but never modified or retained. Training checks the context
// every few hundred steps; on cancellation the partially trained map
// is discarded and the context's error returned. A nil context never
// fires.
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
	m := newMap(c.Rows, c.Cols, dim)
	r := rng.New(c.Seed)

	// The paper's PCA-plane initialization, with random weights only
	// where the samples cannot support the plane (see initPCA).
	pcaInit := m.initPCA(samples)
	if !pcaInit {
		m.initRandom(samples, r)
	}

	// A PCA-initialized map starts inside the samples' affine span, so
	// training can run on span coordinates (see spanBasis) whenever
	// that span is narrower than the input. Random weights scatter
	// across every dimension.
	var span *spanBasis
	if pcaInit {
		span = newSpanBasis(samples, m.weights)
	}
	trainDim := dim
	if span != nil {
		trainDim = len(span.q)
	}
	sp.SetAttr("train_dim", trainDim)
	var err error
	if span != nil {
		err = m.trainSequentialInSpan(ctx, c, samples, span, r, o, sp)
	} else {
		err = m.trainSequential(ctx, c, samples, r, o, sp)
	}
	if err != nil {
		return nil, err
	}
	m.setBMUSearch(bmuSearchAuto)
	return m, nil
}

// cancelCheckSteps is the sequential-training cancellation stride:
// the context is polled every this many steps, bounding the latency
// of a cancellation to a few hundred cheap weight updates.
const cancelCheckSteps = 256

// trainSequential runs the classic on-line SOM loop: at every step a
// random sample is presented, its BMU located, and the BMU
// neighbourhood pulled toward the sample with the Gaussian kernel
// h_ci(n) = α(n)·exp(−‖r_c − r_i‖²/2σ²(n)).
// When an observer is active a som.step event is emitted at 32
// evenly spaced checkpoints recording the annealed learning rate and
// radius — sequential training has no epochs, so checkpoints stand
// in for them.
func (m *Map) trainSequential(ctx context.Context, c Config, samples []vecmath.Vector, r *rng.Source, o *obs.Observer, sp *obs.Span) error {
	interval := 0
	if o.Active() {
		interval = c.Steps / 32
		if interval < 1 {
			interval = 1
		}
		o.Metrics().Counter("som.steps").Add(int64(c.Steps))
	}
	sigma0 := float64(max(c.Rows, c.Cols)) / 2
	diff := vecmath.NewVector(m.dim) // scratch: x − w_i
	for n := 0; n < c.Steps; n++ {
		if n%cancelCheckSteps == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("som: training cancelled at step %d of %d: %w", n, c.Steps, err)
			}
		}
		t := float64(n) / float64(c.Steps)
		alpha := anneal(alpha0, alphaFloor, t)
		sigma := anneal(sigma0, sigmaFloor, t)
		if interval > 0 && n%interval == 0 {
			o.Metrics().Gauge("som.alpha").Set(alpha)
			o.Metrics().Gauge("som.sigma").Set(sigma)
			sp.Event("som.step", obs.KV("step", n), obs.KV("alpha", alpha), obs.KV("sigma", sigma))
		}
		x := samples[r.Intn(len(samples))]
		br, bc := m.BMU(x)
		m.updateNeighbourhood(x, br, bc, alpha, sigma, diff)
	}
	return nil
}

// updateNeighbourhood applies the weight update around BMU (br, bc).
// Units farther than cutoff·σ contribute a negligible kernel value
// and are skipped; this bounds the work per step without changing
// the result materially.
func (m *Map) updateNeighbourhood(x vecmath.Vector, br, bc int, alpha, sigma float64, diff vecmath.Vector) {
	const cutoff = 3.0
	reach := int(math.Ceil(cutoff * sigma))
	r0, r1 := maxInt(0, br-reach), minInt(m.rows-1, br+reach)
	c0, c1 := maxInt(0, bc-reach), minInt(m.cols-1, bc+reach)
	inv2s2 := 1 / (2 * sigma * sigma)
	for gr := r0; gr <= r1; gr++ {
		for gc := c0; gc <= c1; gc++ {
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
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
