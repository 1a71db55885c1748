package som

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"hmeans/internal/lru"
	"hmeans/internal/obs"
	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

// Start is the part of a training run that comes before its first
// draw from the seed's random generator: the paper's PCA-plane
// initialization (initPCA) and, when the samples span fewer
// dimensions than they have, the span basis and the span coordinates
// of the samples and of the initial weights (newSpanBasis). It depends
// on the grid shape and the samples alone, so one start serves every
// SOM seed and step count. A start holds no reference to the samples
// it was built from, shares no memory with any map trained from it,
// and is never written after it is built, so concurrent trainings may
// read one start.
type Start struct {
	rows, cols, dim int
	// init holds the initial weights, unit u at
	// init[u*w : (u+1)*w], where w is the span rank when span is
	// non-nil and dim otherwise. It is nil when the samples cannot
	// support the PCA plane; training then draws random weights from
	// its seed (initRandom) and runs in the full dimension.
	init []float64
	// span is the basis of the samples' affine span, or nil when that
	// span has full rank and training runs in the full dimension.
	span *spanBasis
	// coords holds the samples' span coordinates (views into one
	// array); nil when span is nil.
	coords []vecmath.Vector
}

// newStart builds the start of a rows × cols map on samples, which
// must be non-empty and rectangular. Once ctx has ended the PCA stops
// and newStart returns ctx's error and no start.
func newStart(ctx context.Context, rows, cols int, samples []vecmath.Vector) (*Start, error) {
	st := &Start{rows: rows, cols: cols, dim: len(samples[0])}
	// initPCA needs the weight plane alone; the trained map gets its
	// own (see train).
	m := Map{rows: rows, cols: cols, dim: st.dim}
	m.flat, m.weights = newPlane(rows*cols, st.dim)
	ok, err := m.initPCA(ctx, samples)
	if err != nil {
		return nil, fmt.Errorf("som: start cancelled: %w", err)
	}
	if !ok {
		return st, nil
	}
	// A PCA-initialized map starts inside the samples' affine span, so
	// training can run on span coordinates (see spanBasis) whenever
	// that span is narrower than the input. Random weights scatter
	// across every dimension.
	st.span = newSpanBasis(samples, m.weights)
	if st.span == nil {
		st.init = m.flat
		return st, nil
	}
	rank := len(st.span.q)
	st.init = make([]float64, len(m.weights)*rank)
	diff := vecmath.NewVector(st.dim)
	for u, w := range m.weights {
		st.span.project(st.init[u*rank:(u+1)*rank], w, diff)
	}
	flat := make([]float64, len(samples)*rank)
	st.coords = make([]vecmath.Vector, len(samples))
	for i, s := range samples {
		st.coords[i] = vecmath.Vector(flat[i*rank : (i+1)*rank : (i+1)*rank])
		st.span.project(st.coords[i], s, diff)
	}
	return st, nil
}

// trainDim is the dimension the step loop runs in from s: the span
// rank on the span path, the input dimension otherwise.
func (s *Start) trainDim() int {
	if s.span != nil {
		return len(s.span.q)
	}
	return s.dim
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
	case s.span == nil:
		copy(m.flat, s.init)
		err = m.trainSequential(ctx, c, samples, r, o, sp)
	default:
		pm := newMap(s.rows, s.cols, len(s.span.q))
		copy(pm.flat, s.init)
		if err = pm.trainSequential(ctx, c, s.coords, r, o, sp); err == nil {
			for u, w := range m.weights {
				s.span.lift(w, pm.weights[u])
			}
		}
	}
	if err != nil {
		return nil, err
	}
	m.setBMUSearch(bmuSearchAuto)
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
