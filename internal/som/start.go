package som

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"hmeans/internal/lru"
	"hmeans/internal/obs"
	"hmeans/internal/pca"
	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

// Start is the part of a training run that comes before its first
// draw from the seed's random generator: the paper's PCA-plane
// initialization and, when the samples span fewer dimensions than they
// have, the span basis and the samples' span coordinates, all from one
// pca.Fit. It depends on the grid shape and the samples alone, so one
// start serves every SOM seed and step count. A start holds no
// reference to the samples it was built from, shares no memory with
// any map trained from it, and is never written after it is built, so
// concurrent trainings may read one start.
//
// The initial weights lie in the samples' affine span, and a
// sequential update w ← w + h·(x − w) is an affine combination of a
// weight and a sample, so the weights never leave it; an orthonormal
// basis preserves every Euclidean distance inside it. Training on the
// span coordinates is therefore the same algorithm as training on the
// full vectors, in exact arithmetic: the same BMUs, the same updates,
// the same random sample order.
type Start struct {
	rows, cols, dim int
	// init holds the initial weights, unit u at
	// init[u*w : (u+1)*w], where w is trainDim. It is nil when the
	// samples span less than a plane; training then draws random
	// weights from its seed (initRandom) and runs in the full
	// dimension.
	init []float64
	// mean and basis are the samples' mean and an orthonormal basis of
	// their centered span, and coords the samples' coordinates in it;
	// all are nil when that span has full rank and training runs in
	// the full dimension.
	mean   vecmath.Vector
	basis  []vecmath.Vector
	coords []vecmath.Vector
}

// newStart builds the start of a rows × cols map on samples, which
// must be non-empty and rectangular. The map starts on the plane of
// the samples' two major principal components: unit (row, col) at
// mean + u·√λ₁·pc₁ + v·√λ₂·pc₂ with u, v ∈ [−1, 1], built directly in
// the coordinates training runs in. Samples whose span has rank below
// 2 take the random start. Once ctx has ended the PCA stops and
// newStart returns ctx's error and no start.
func newStart(ctx context.Context, rows, cols int, samples []vecmath.Vector) (*Start, error) {
	st := &Start{rows: rows, cols: cols, dim: len(samples[0])}
	// Fewer than three samples, or one feature, span at most a line.
	if len(samples) < 3 || st.dim < 2 {
		return st, nil
	}
	vs := make([][]float64, len(samples))
	for i, s := range samples {
		vs[i] = s
	}
	model, err := pca.Fit(ctx, vs, 2)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("som: start cancelled: %w", err)
	}
	// A Fit that failed on non-finite sums has no plane either.
	if err != nil || len(model.Axes) < 2 {
		return st, nil
	}
	r, origin := st.dim, model.Means
	if model.Basis != nil {
		// The samples' mean is the origin of their span coordinates.
		r, origin = len(model.Basis), vecmath.NewVector(len(model.Basis))
		st.mean, st.basis, st.coords = model.Means, model.Basis, model.Coords
	}
	s1, s2 := math.Sqrt(model.Variances[0]), math.Sqrt(model.Variances[1])
	pc1, pc2 := model.Axes[0], model.Axes[1]
	st.init = make([]float64, rows*cols*r)
	for gr := 0; gr < rows; gr++ {
		for gc := 0; gc < cols; gc++ {
			u, v := gridSpan(gr, rows), gridSpan(gc, cols)
			unit := gr*cols + gc
			w := st.init[unit*r : (unit+1)*r]
			for j := range w {
				w[j] = origin[j] + u*s1*pc1[j] + v*s2*pc2[j]
			}
		}
	}
	return st, nil
}

// trainDim is the dimension the step loop runs in from s: the span
// rank on the span path, the input dimension otherwise.
func (s *Start) trainDim() int {
	if s.basis != nil {
		return len(s.basis)
	}
	return s.dim
}

// lift writes the vector mean + Σₖ c[k]·basis[k] into w.
func (s *Start) lift(w, c vecmath.Vector) {
	copy(w, s.mean)
	for k, q := range s.basis {
		w.AXPYInPlace(c[k], q)
	}
}

// train runs the seeded part of TrainCtx from s: a fresh map, random
// weights when s has no initial weights, and the step loop on the
// span coordinates (lifting every trained weight back into the map)
// or on the samples themselves.
func (s *Start) train(ctx context.Context, c Config, samples []vecmath.Vector, o *obs.Observer, sp *obs.Span) (*Map, error) {
	m := newMap(s.rows, s.cols, s.dim)
	r := rng.New(c.Seed)
	var err error
	switch {
	case s.init == nil:
		m.initRandom(samples, r)
		err = m.trainSequential(ctx, c, samples, r, o, sp)
	case s.basis == nil:
		copy(m.flat, s.init)
		err = m.trainSequential(ctx, c, samples, r, o, sp)
	default:
		pm := newMap(s.rows, s.cols, len(s.basis))
		copy(pm.flat, s.init)
		if err = pm.trainSequential(ctx, c, s.coords, r, o, sp); err == nil {
			for u, w := range m.weights {
				s.lift(w, pm.weights[u])
			}
		}
	}
	if err != nil {
		return nil, err
	}
	m.index = m.buildBMUIndex()
	return m, nil
}

// Starts is a bounded table of training starts, keyed by SHA-256 of
// the grid shape and the samples' exact float64 bits, and of kernel
// schedules, keyed by the grid shape and the step count, safe for
// concurrent use. Set in Config.Starts, it lets a later training on
// the same grid and samples, at any seed, skip straight to its seed's
// training, and a later training on the same grid and step count, on
// any samples, read its kernel instead of computing it. Two concurrent
// first trainings on one key may both build a start or a schedule;
// the two are bit-identical, so the table keeps either.
type Starts struct {
	table     *lru.Cache[*Start]
	schedules *lru.Cache[*schedule]
}

// NewStarts returns a table of at most capacity starts, and of kernel
// schedules of at most scheduleBytes in all.
func NewStarts(capacity int) *Starts {
	return &Starts{
		table:     lru.New[*Start](capacity),
		schedules: lru.NewSized(scheduleBytes, (*schedule).bytes),
	}
}

// start returns the start of a rows × cols map on samples: from t
// when t holds one for the same grid and bits, else newly built and
// stored. A nil t builds every time. A build that ctx cuts short
// returns its error and stores nothing. With telemetry on it records
// a som.start span under sp and counts som.start.built or
// som.start.reused.
func (t *Starts) start(ctx context.Context, rows, cols int, samples []vecmath.Vector, o *obs.Observer, sp *obs.Span) (*Start, error) {
	ssp := sp.Child("som.start")
	defer ssp.End()
	var key lru.Key
	if t != nil {
		key = startKey(rows, cols, samples)
		if st, ok := t.table.Get(key); ok {
			ssp.SetAttr("reused", true)
			if o.Active() {
				o.Metrics().Counter("som.start.reused").Add(1)
			}
			return st, nil
		}
	}
	st, err := newStart(ctx, rows, cols, samples)
	if err != nil {
		return nil, err
	}
	if t != nil {
		t.table.Put(key, st)
	}
	ssp.SetAttr("reused", false)
	if o.Active() {
		o.Metrics().Counter("som.start.built").Add(1)
	}
	return st, nil
}

// schedule returns the kernel schedule of p: from t when t holds one,
// else newly built and stored. It returns nil, and training fills its
// own schedule a block at a time, when t is nil or when the schedule
// would take more than scheduleBytes. A build that ctx cuts short
// returns its error and stores nothing. With telemetry on it counts
// som.schedule.built or som.schedule.reused, adds a build's exps to
// som.kernel_exps and sets som.schedule.bytes to the bytes of the
// schedules t holds.
func (t *Starts) schedule(ctx context.Context, p kernelPlan, o *obs.Observer) (*schedule, error) {
	if t == nil {
		return nil, nil
	}
	key := p.key()
	if s, ok := t.schedules.Get(key); ok {
		if o.Active() {
			o.Metrics().Counter("som.schedule.reused").Add(1)
		}
		return s, nil
	}
	s, err := buildSchedule(ctx, p)
	if s == nil {
		return nil, err
	}
	t.schedules.Put(key, s)
	if o.Active() {
		m := o.Metrics()
		m.Counter("som.schedule.built").Add(1)
		m.Counter("som.kernel_exps").Add(int64(len(s.kern)))
		m.Gauge("som.schedule.bytes").Set(float64(t.schedules.Size()))
	}
	return s, nil
}

// startKey hashes the grid shape, the sample count and dimension, and
// every sample's float64 bits in row order, through a fixed buffer:
// the samples are read in place, never copied as a set. Rows in
// another order are another key, as they should be: the PCA sums and
// the span basis run in row order.
func startKey(rows, cols int, samples []vecmath.Vector) lru.Key {
	h := sha256.New()
	var buf [512]byte
	b := buf[:0]
	for _, v := range [4]int{rows, cols, len(samples), len(samples[0])} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, s := range samples {
		for _, x := range s {
			if len(b) == len(buf) {
				h.Write(b)
				b = buf[:0]
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	h.Write(b)
	var key lru.Key
	h.Sum(key[:0])
	return key
}
