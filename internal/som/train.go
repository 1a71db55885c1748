package som

import (
	"context"
	"fmt"
	"math"

	"hmeans/internal/obs"
	"hmeans/internal/par"
	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

// Train builds and trains a map on the sample set according to cfg.
// Samples must be non-empty and rectangular. The input slices are
// read but never modified or retained.
func Train(cfg Config, samples []vecmath.Vector) (*Map, error) {
	return TrainCtx(context.Background(), cfg, samples)
}

// TrainCtx is Train with cooperative cancellation: batch training
// checks the context at every epoch boundary (its natural checkpoint
// — each epoch is one full pass plus a reduction) and inside the
// sharded accumulation, sequential training every few hundred steps.
// On cancellation the partially trained map is discarded and the
// context's error returned. A context that never fires leaves the
// trained weights bit-identical to Train.
func TrainCtx(ctx context.Context, cfg Config, samples []vecmath.Vector) (*Map, error) {
	return train(ctx, cfg, samples, bmuSearchAuto)
}

// train is TrainCtx with the BMU search pinned to mode, so tests can
// prove the brute and pruned searches train bit-identical maps.
func train(ctx context.Context, cfg Config, samples []vecmath.Vector, mode bmuSearch) (*Map, error) {
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
		obs.KV("algorithm", c.Algorithm.String()),
		obs.KV("rows", c.Rows), obs.KV("cols", c.Cols),
		obs.KV("samples", len(samples)), obs.KV("dim", dim))
	defer sp.End()
	m := newMap(c.Rows, c.Cols, dim)
	r := rng.New(c.Seed)

	switch c.Init {
	case InitRandom:
		m.initRandom(samples, r)
	default:
		if !m.initPCA(samples) {
			m.initRandom(samples, r)
		}
	}

	if c.Algorithm == Batch {
		if err := m.trainBatch(ctx, c, samples, mode, o, sp); err != nil {
			return nil, err
		}
	} else {
		if err := m.trainSequential(ctx, c, samples, r, o, sp); err != nil {
			return nil, err
		}
	}
	m.setBMUSearch(mode)
	return m, nil
}

// kernelCutoff is the smallest neighbourhood-kernel value that
// participates in a batch update; see trainBatch for why far tails
// must not capture unvisited units.
const kernelCutoff = 0.05

// batchShardSize is the fixed accumulation-shard width of batch
// training. Shard boundaries depend only on the sample count — never
// on Config.Parallelism — so the shard-order reduction makes the
// trained map bit-identical for every worker count. Sample sets no
// larger than one shard accumulate in exactly the historical serial
// order.
const batchShardSize = 32

// batchEpochs returns the epoch count for batch training: an explicit
// BatchEpochs wins, otherwise Steps is reinterpreted as sample
// presentations and clamped to a practical epoch range.
func batchEpochs(c Config, nSamples int) int {
	if c.BatchEpochs > 0 {
		return c.BatchEpochs
	}
	epochs := c.Steps / maxInt(1, nSamples)
	if epochs < 10 {
		epochs = 10
	}
	if epochs > 200 {
		epochs = 200
	}
	return epochs
}

// batchRun is the reusable working set of one batch-training run: the
// shard-private numerator/denominator accumulators, the per-reduction-
// shard scratch, and the fan-out bodies themselves. Everything is
// allocated exactly once (by newBatchRun) and reused across epochs, so
// a steady-state epoch performs zero heap allocations: the accumulator
// planes are flat []float64 arenas indexed by (shard, unit, dim), and
// the shard bodies are method values bound once — not closures rebuilt
// per epoch.
type batchRun struct {
	m       *Map
	samples []vecmath.Vector
	// shards is the sample-accumulation shard count; rshards the
	// unit-reduction shard count. Both use batchShardSize, so both
	// partitions depend only on problem size, never on worker count.
	shards, rshards int
	units, dim      int
	// num[(s*units+u)*dim : …+dim] is shard s's numerator for unit u;
	// den[s*units+u] its denominator.
	num, den []float64
	// scratch[r*dim : (r+1)*dim] is reduction shard r's private numSum.
	scratch []float64
	// qe[s] is shard s's quantization-error sum; nil when no observer
	// is active.
	qe []float64
	// inv2s2 carries the per-epoch kernel parameter 1/(2σ²) into the
	// shard bodies without a per-epoch closure.
	inv2s2 float64
	// accumulate/reduce are method values bound once so the per-epoch
	// fan-outs pass a reused func value instead of allocating one.
	accumulate func(shard, start, end int)
	reduce     func(shard, start, end int)
}

func newBatchRun(m *Map, samples []vecmath.Vector, withQE bool) *batchRun {
	units, dim := len(m.weights), m.dim
	b := &batchRun{
		m:       m,
		samples: samples,
		shards:  (len(samples) + batchShardSize - 1) / batchShardSize,
		rshards: (units + batchShardSize - 1) / batchShardSize,
		units:   units,
		dim:     dim,
	}
	b.num = make([]float64, b.shards*units*dim)
	b.den = make([]float64, b.shards*units)
	b.scratch = make([]float64, b.rshards*dim)
	if withQE {
		b.qe = make([]float64, b.shards)
	}
	b.accumulate = b.accumulateShard
	b.reduce = b.reduceShard
	return b
}

// accumulateShard zeroes shard `shard`'s accumulators, then folds
// samples[start:end] into them: each sample adds h·x to the numerator
// and h to the denominator of every unit inside its BMU's effective
// neighbourhood. The arithmetic (w[j] += h·x[j], in index order) is
// exactly the AXPY of the historical per-unit-vector layout.
func (b *batchRun) accumulateShard(shard, start, end int) {
	m, dim := b.m, b.dim
	snum := b.num[shard*b.units*dim : (shard+1)*b.units*dim]
	sden := b.den[shard*b.units : (shard+1)*b.units]
	for i := range snum {
		snum[i] = 0
	}
	for i := range sden {
		sden[i] = 0
	}
	inv2s2 := b.inv2s2
	var qeSum float64
	for _, x := range b.samples[start:end] {
		bu, d2 := m.bmu(x)
		if b.qe != nil {
			qeSum += math.Sqrt(d2)
		}
		br, bc := bu/m.cols, bu%m.cols
		for gr := 0; gr < m.rows; gr++ {
			for gc := 0; gc < m.cols; gc++ {
				dr, dc := float64(gr-br), float64(gc-bc)
				h := math.Exp(-(dr*dr + dc*dc) * inv2s2)
				if h < kernelCutoff {
					continue
				}
				u := gr*m.cols + gc
				w := snum[u*dim : (u+1)*dim]
				for j, xj := range x {
					w[j] += h * xj
				}
				sden[u] += h
			}
		}
	}
	if b.qe != nil {
		b.qe[shard] = qeSum
	}
}

// reduceShard sums every accumulation shard's slot for units
// [start, end) in ascending shard order — so the float sums do not
// depend on which worker filled which shard — and applies the weight
// update. numSum[j] += v is bit-identical to the historical
// AXPYInPlace(1, ·) because 1·v == v exactly.
func (b *batchRun) reduceShard(shard, start, end int) {
	dim := b.dim
	numSum := b.scratch[shard*dim : (shard+1)*dim]
	for u := start; u < end; u++ {
		denSum := 0.0
		for j := range numSum {
			numSum[j] = 0
		}
		for s := 0; s < b.shards; s++ {
			sv := b.num[(s*b.units+u)*dim : (s*b.units+u+1)*dim]
			for j, v := range sv {
				numSum[j] += v
			}
			denSum += b.den[s*b.units+u]
		}
		if denSum < kernelCutoff {
			// The unit is outside every sample's effective
			// neighbourhood this epoch. Keep its weight: far
			// units must retain the ordered (PCA-interpolated)
			// surface rather than be captured by whichever
			// sample's kernel tail happens to dominate — that
			// capture is what creates grid-wide weight plateaus
			// and scatters near-identical samples' BMUs.
			continue
		}
		w := b.m.weights[u]
		for j := range w {
			w[j] = numSum[j] / denSum
		}
	}
}

// epoch runs one batch epoch at neighbourhood radius sigma:
// shard-parallel accumulation, then the shard-order reduction and
// weight update. The reduction is not cancellable mid-flight — a
// partial weight update would leave the map inconsistent — so the
// caller's next epoch checkpoint handles a fired context.
func (b *batchRun) epoch(ctx context.Context, workers int, sigma float64) error {
	b.inv2s2 = 1 / (2 * sigma * sigma)
	if _, err := par.FixedShardsCtx(ctx, workers, len(b.samples), batchShardSize, b.accumulate); err != nil {
		return err
	}
	_, _ = par.FixedShardsCtx(context.Background(), workers, b.units, batchShardSize, b.reduce)
	return nil
}

// epochQE returns the epoch's mean sample→BMU distance from the
// per-shard sums gathered during accumulation.
func (b *batchRun) epochQE() float64 {
	var total float64
	for _, v := range b.qe {
		total += v
	}
	return total / float64(len(b.samples))
}

// trainBatch runs the batch SOM algorithm: each epoch assigns every
// sample to its BMU, then recomputes every unit's weight as the
// kernel-weighted mean of all samples,
//
//	w_i = Σ_j h(i, c_j) x_j / Σ_j h(i, c_j),
//
// with the neighbourhood radius annealed across epochs. Batch
// training is deterministic (no sample-order randomness), converges
// in tens of epochs, and — because each unit's weight is a smooth
// kernel average — does not magnify tight sample blobs across the
// grid the way a fully converged sequential run does. That makes it
// the right default for the paper's use case: tiny sample counts
// (one vector per workload) where BMU geometry is the product the
// clustering stage consumes.
//
// The per-epoch accumulation is partitioned into fixed-size sample
// shards (batchShardSize) spread across Config.Parallelism workers.
// Each shard owns private numerator/denominator accumulators; one
// reduction per epoch sums them in shard-index order, so the weight
// update — and therefore the converged map — is bit-identical for
// any worker count. The BMU searches inside a shard only read the
// previous epoch's weights, which are frozen until the reduction.
// All working memory lives in a batchRun allocated once up front;
// see that type for the allocation discipline.
//
// When an observer is active each epoch additionally accumulates the
// quantization error (mean sample→BMU distance) per shard — the BMU
// distances are already computed, so the extra cost is one sqrt and
// add per sample — and emits a som.epoch event with the annealed
// radius and the epoch's QE.
func (m *Map) trainBatch(ctx context.Context, c Config, samples []vecmath.Vector, mode bmuSearch, o *obs.Observer, sp *obs.Span) error {
	floor := c.SigmaFinal
	if floor <= 0 {
		floor = sigmaFloor
	}
	epochs := batchEpochs(c, len(samples))
	workers := par.Resolve(c.Parallelism)
	b := newBatchRun(m, samples, o.Active())
	// The pruned index is valid for exactly one epoch (the reduction
	// rewrites the weights) and is rebuilt at each epoch's start,
	// while the BMU scans inside the epoch read only the frozen
	// previous-epoch weights.
	usePruned := m.resolveBMUSearch(mode) == bmuSearchPruned
	var qeGauge, sigmaGauge *obs.Gauge
	if o.Active() {
		qeGauge = o.Metrics().Gauge("som.qe")
		sigmaGauge = o.Metrics().Gauge("som.sigma")
		o.Metrics().Counter("som.epochs").Add(int64(epochs))
	}
	for e := 0; e < epochs; e++ {
		// The per-epoch checkpoint: a fired context abandons training
		// between epochs, so the caller never sees a half-reduced map.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("som: training cancelled at epoch %d of %d: %w", e, epochs, err)
		}
		t := float64(e) / float64(epochs)
		sigma := c.RadiusDecay.value(c.Sigma0, floor, t)
		if usePruned {
			m.index = m.buildBMUIndex()
		}
		if err := b.epoch(ctx, workers, sigma); err != nil {
			return fmt.Errorf("som: epoch %d accumulation: %w", e, err)
		}
		if b.qe != nil {
			epochQE := b.epochQE()
			qeGauge.Set(epochQE)
			sigmaGauge.Set(sigma)
			sp.Event("som.epoch", obs.KV("epoch", e), obs.KV("qe", epochQE), obs.KV("sigma", sigma))
		}
	}
	return nil
}

// trainSequential runs the classic on-line SOM loop: at every step a
// random sample is presented, its BMU located, and the BMU
// neighbourhood pulled toward the sample with the Gaussian kernel
// h_ci(n) = α(n)·exp(−‖r_c − r_i‖²/2σ²(n)).
// When an observer is active a som.step event is emitted at 32
// evenly spaced checkpoints recording the annealed learning rate and
// radius — sequential training has no epochs, so checkpoints stand
// in for them.
// cancelCheckSteps is the sequential-training cancellation stride:
// the context is polled every this many steps, bounding the latency
// of a cancellation to a few hundred cheap weight updates.
const cancelCheckSteps = 256

func (m *Map) trainSequential(ctx context.Context, c Config, samples []vecmath.Vector, r *rng.Source, o *obs.Observer, sp *obs.Span) error {
	interval := 0
	if o.Active() {
		interval = c.Steps / 32
		if interval < 1 {
			interval = 1
		}
		o.Metrics().Counter("som.steps").Add(int64(c.Steps))
	}
	diff := vecmath.NewVector(m.dim) // scratch: x − w_i
	for n := 0; n < c.Steps; n++ {
		if n%cancelCheckSteps == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("som: training cancelled at step %d of %d: %w", n, c.Steps, err)
			}
		}
		t := float64(n) / float64(c.Steps)
		alpha := c.LearningDecay.value(c.Alpha0, alphaFloor, t)
		floor := c.SigmaFinal
		if floor <= 0 {
			floor = sigmaFloor
		}
		sigma := c.RadiusDecay.value(c.Sigma0, floor, t)
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
	return m.PlacementsP(samples, 1)
}

// PlacementsP is Placements across a worker pool. Every sample's BMU
// is independent of the others, so the result is identical for any
// worker count.
func (m *Map) PlacementsP(samples []vecmath.Vector, workers int) []vecmath.Vector {
	out := make([]vecmath.Vector, len(samples))
	par.For(workers, len(samples), func(start, end int) {
		for i := start; i < end; i++ {
			out[i] = m.Position(samples[i])
		}
	})
	return out
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
	return m.SoftPlacementsP(samples, 1)
}

// SoftPlacementsP is SoftPlacements across a worker pool; like
// PlacementsP the result is identical for any worker count.
func (m *Map) SoftPlacementsP(samples []vecmath.Vector, workers int) []vecmath.Vector {
	out := make([]vecmath.Vector, len(samples))
	par.For(workers, len(samples), func(start, end int) {
		for i := start; i < end; i++ {
			out[i] = m.SoftPosition(samples[i])
		}
	})
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
