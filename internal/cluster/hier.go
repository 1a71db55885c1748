package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hmeans/internal/obs"
	"hmeans/internal/vecmath"
)

// ErrNoPoints is returned when clustering is requested on an empty
// point set.
var ErrNoPoints = errors.New("cluster: no points")

// Merge records one agglomeration step. Cluster ids follow the
// scipy/R convention: ids 0..n-1 are the leaves (input points); the
// merge at step s creates cluster id n+s.
type Merge struct {
	// A and B are the ids of the merged clusters, with A < B.
	A, B int
	// Distance is the linkage distance at which the merge happened —
	// the "merging distance" on the dendrogram's y-axis.
	Distance float64
	// Size is the number of leaves in the new cluster.
	Size int
}

// Dendrogram is the full merge tree of an agglomerative clustering of
// n points: exactly n−1 merges, ordered by execution (non-decreasing
// distance for the standard linkages on a metric).
type Dendrogram struct {
	n       int
	linkage Linkage
	merges  []Merge
}

// Options bundles the optional knobs of dendrogram construction.
type Options struct {
	// Workers is ignored: construction runs on one goroutine.
	//
	// Deprecated: kept only because perfbench/replay.go sets it; it
	// goes with the next benchmark change.
	Workers int
	// Ctx cancels the construction cooperatively: the matrix build
	// stops between tile pairs, the validation pass between rows and
	// the agglomeration between merge steps once the context fires,
	// returning its error. Nil means no cancellation; a context that
	// never fires leaves the result bit-identical.
	Ctx context.Context
	// Obs receives a cluster.linkage span and the merge-distance
	// histogram. Nil falls back to the process-default observer.
	Obs *obs.Observer
	// Algorithm is ignored: every run uses the one agglomeration loop
	// (see fromCondensed).
	//
	// Deprecated: kept only because perfbench/replay.go sets it; it
	// goes with the next benchmark change.
	Algorithm Algorithm
}

// Algorithm is not read: one agglomeration loop runs at every n. It
// stays only because perfbench/tier.go and perfbench/replay.go compile
// against it, until the next benchmark change. It is not marked
// Deprecated because the deprecated LinkageAlgorithm fields of
// core.PipelineConfig and service.Config name it, and staticcheck
// (SA1019) would report those uses.
type Algorithm int

// AlgoAuto is the zero Algorithm.
//
// Deprecated: kept only because perfbench/tier.go sets it.
const AlgoAuto Algorithm = 0

// String returns "auto".
//
// Deprecated: kept only because perfbench/tier.go prints it in its
// config line.
func (Algorithm) String() string { return "auto" }

// NewDendrogramOpts runs bottom-up agglomerative clustering over the
// given points under metric m and the selected linkage, following the
// paper's algorithm: start with singleton clusters, repeatedly merge
// the closest pair until one cluster remains. The pairwise distances
// are built directly in condensed (upper-triangle) form — n(n−1)/2
// floats instead of n² — and the agglomeration runs natively on that
// layout; no dense matrix is ever materialized.
func NewDendrogramOpts(points []vecmath.Vector, m vecmath.Metric, l Linkage, opt Options) (*Dendrogram, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	cm, err := vecmath.CondensedDistanceMatrixCtx(ctx, m, points)
	if err != nil {
		return nil, fmt.Errorf("cluster: distance matrix: %w", err)
	}
	return fromCondensed(cm, l, opt)
}

// fromCondensed is the agglomeration core. The input matrix becomes
// the working matrix and is consumed: Ward squares it in place and
// every merge overwrites it. Ward linkage interprets the entries as
// Euclidean distances (they are squared internally and merge heights
// are reported back on the original scale).
//
// Every step merges the closest active pair, and among equal
// distances the first pair in row-major slot order: the rule of the
// O(n³) scan, the tests' oracle. The loop makes exactly the scan's
// picks and updates from cached row minima (see agglomeration).
func fromCondensed(w *vecmath.CondensedMatrix, l Linkage, opt Options) (*Dendrogram, error) {
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	n := w.N()
	d := &Dendrogram{n: n, linkage: l, merges: make([]Merge, 0, n-1)}
	if n == 1 {
		return d, nil
	}
	o := obs.Or(opt.Obs)
	sp := o.StartSpan("cluster.linkage", obs.KV("n", n), obs.KV("linkage", l.String()))
	defer sp.End()
	var mergeHist *obs.Histogram
	if o.Active() {
		mergeHist = o.Metrics().Histogram("cluster.merge_distance", 0.25, 0.5, 1, 2, 4, 8, 16)
		o.Metrics().Counter("cluster.linkage.runs").Add(1)
	}
	// One cluster.merge event per agglomeration step is O(n) events
	// per clustering — cheap for benchmark suites, noisy for
	// thousands of points — so it rides on the observer's detail
	// toggle.
	mergeEvents := o.Detail()

	// One pass over the row tails validates every distance (the first
	// invalid one in row order is the error) and squares it for Ward.
	// +Inf is invalid, and so is a distance whose Ward square
	// overflows: the loop marks the pairs of inactive slots with +Inf.
	for i := 0; i < n-1; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cluster: building working distances: %w", err)
		}
		row := w.RowTail(i)
		for t, v := range row {
			if l == Ward {
				row[t] = v * v
			}
			if v < 0 || math.IsNaN(v) || math.IsInf(row[t], 1) {
				return nil, fmt.Errorf("cluster: invalid distance %v at (%d,%d)", v, i, i+1+t)
			}
		}
	}
	// Long agglomerations advertise a coarse completion fraction so a
	// large-n run is visible on /metrics instead of a silent hang.
	var progGauge *obs.Gauge
	if o.Active() {
		progGauge = o.Metrics().Gauge("cluster.progress")
		progGauge.Set(0)
	}
	g := newAgglomeration(w)
	progEvery := max(1, (n-1)/64) // about 64 progress reports per run
	for step := 0; step < n-1; step++ {
		// Cancel between merge steps, each O(n) work.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cluster: linkage cancelled at step %d of %d: %w", step, n-1, err)
		}
		lo := g.closest()
		if lo < 0 {
			return nil, fmt.Errorf("cluster: no finite distance left at step %d of %d (a Lance–Williams update overflowed)", step, n-1)
		}
		hi, best := g.nbr[lo], g.mind[lo]
		a, b := g.id[lo], g.id[hi]
		if a > b {
			a, b = b, a
		}
		size := g.size[lo] + g.size[hi]
		g.merge(l, lo, hi)
		g.id[lo] = n + step
		height := best
		if l == Ward {
			height = math.Sqrt(best)
		}
		d.merges = append(d.merges, Merge{A: a, B: b, Distance: height, Size: size})
		mergeHist.Observe(height)
		if mergeEvents {
			sp.Event("cluster.merge", obs.KV("step", step), obs.KV("a", a), obs.KV("b", b),
				obs.KV("distance", height), obs.KV("size", size))
		}
		if progGauge != nil && (step+1)%progEvery == 0 {
			progGauge.Set(float64(step+1) / float64(n-1))
		}
	}
	progGauge.Set(1)
	return d, nil
}

// agglomeration is the working state of the merge loop: the
// nearest-neighbour-list form of the generic algorithm (Müllner,
// arXiv:1109.2378), kept exact for the scan's row-major tie-break.
// Slot i starts as leaf i; a merge keeps the lower slot.
//
// The invariant, for every active slot i: nbr[i] is the first active
// slot j > i at which d(i, j) is smallest, counting only values below
// +Inf (a NaN never wins, as in the scan's strict comparison), and
// mind[i] is that distance; a row with no such slot has nbr −1 and
// mind +Inf. The scan's pick is then the first row with the smallest
// mind and that row's nbr. Inactive slots have size 0 and mind +Inf,
// and every pair of an inactive slot with an active lower slot holds
// +Inf, so a rescan reads a row tail with no activity test.
type agglomeration struct {
	w    *vecmath.CondensedMatrix
	id   []int // cluster id held by each slot
	size []int // leaf count per slot; 0 marks an inactive slot
	nbr  []int
	mind []float64
}

// newAgglomeration starts n singleton slots over the validated working
// matrix w, carving id, size and nbr out of one allocation.
func newAgglomeration(w *vecmath.CondensedMatrix) agglomeration {
	n := w.N()
	ints := make([]int, 3*n)
	g := agglomeration{
		w:    w,
		id:   ints[:n:n],
		size: ints[n : 2*n : 2*n],
		nbr:  ints[2*n:],
		mind: make([]float64, n),
	}
	for i := range g.id {
		g.id[i], g.size[i] = i, 1
		g.rescan(i)
	}
	return g
}

// rescan rebuilds row k's cached minimum from its tail.
func (g *agglomeration) rescan(k int) {
	j, best := -1, math.Inf(1)
	for t, v := range g.w.RowTail(k) {
		if v < best {
			j, best = k+1+t, v
		}
	}
	g.nbr[k], g.mind[k] = j, best
}

// closest returns the slot whose row holds the closest pair, the
// first among equals, or −1 when no finite distance is left.
func (g *agglomeration) closest() int {
	lo, best := -1, math.Inf(1)
	for i, v := range g.mind {
		if v < best {
			lo, best = i, v
		}
	}
	return lo
}

// merge joins slots lo < hi: lo takes the merged cluster and hi goes
// inactive. One ascending walk over the other active slots k applies
// the Lance–Williams update to pair (lo, k) — the scan's calls, with
// its arguments — and keeps every cached minimum exact:
//
//   - k < lo: the new d(k, lo) is offered to row k. A row whose
//     minimum sat at lo or hi takes lo if the new distance is no
//     larger (every slot before its old minimum was strictly farther)
//     and is rescanned otherwise; any other row takes lo only if it is
//     strictly closer, or equally close and earlier.
//   - lo < k < hi: row k loses hi and is rescanned if its minimum sat
//     there.
//   - k > hi: row k holds neither slot and keeps its minimum.
//   - Row lo's minimum is rebuilt from the updated distances.
//
// The addressing is incremental: below lo, pairs (k, lo) and (k, hi)
// walk down columns lo and hi (stride n−k−2); between the two, (lo, k)
// runs along lo's row tail while (k, hi) keeps walking down column
// hi; above hi, both run along row tails. The walk allocates nothing.
func (g *agglomeration) merge(l Linkage, lo, hi int) {
	data, n := g.w.Data(), len(g.mind)
	inf := math.Inf(1)
	loBase := g.w.Index0(lo) - lo - 1 // idx(lo, k) = loBase + k
	dab := data[loBase+hi]
	data[loBase+hi] = inf
	na, nb := g.size[lo], g.size[hi]
	g.size[lo], g.size[hi] = na+nb, 0
	g.nbr[hi], g.mind[hi] = -1, inf

	kLo, kHi := lo-1, hi-1 // idx(0, lo), idx(0, hi)
	for k := 0; k < lo; k++ {
		if nc := g.size[k]; nc > 0 {
			v := l.update(data[kLo], data[kHi], dab, na, nb, nc)
			data[kLo], data[kHi] = v, inf
			switch j := g.nbr[k]; {
			case j == lo || j == hi:
				if v <= g.mind[k] {
					g.nbr[k], g.mind[k] = lo, v
				} else {
					g.rescan(k)
				}
			case v < g.mind[k] || (v == g.mind[k] && lo < j):
				g.nbr[k], g.mind[k] = lo, v
			}
		}
		kLo += n - k - 2
		kHi += n - k - 2
	}
	j, best := -1, inf
	kHi = g.w.Index0(lo+1) + hi - lo - 2 // idx(lo+1, hi)
	for k := lo + 1; k < hi; k++ {
		if nc := g.size[k]; nc > 0 {
			v := l.update(data[loBase+k], data[kHi], dab, na, nb, nc)
			data[loBase+k], data[kHi] = v, inf
			if v < best {
				j, best = k, v
			}
			if g.nbr[k] == hi {
				g.rescan(k)
			}
		}
		kHi += n - k - 2
	}
	hiBase := g.w.Index0(hi) - hi - 1 // idx(hi, k) = hiBase + k
	for k := hi + 1; k < n; k++ {
		if nc := g.size[k]; nc > 0 {
			v := l.update(data[loBase+k], data[hiBase+k], dab, na, nb, nc)
			data[loBase+k] = v
			if v < best {
				j, best = k, v
			}
		}
	}
	g.nbr[lo], g.mind[lo] = j, best
}

// Len returns the number of clustered points (leaves).
func (d *Dendrogram) Len() int { return d.n }

// Linkage returns the linkage the dendrogram was built with.
func (d *Dendrogram) Linkage() Linkage { return d.linkage }

// Merges returns the merge sequence. The slice is shared; callers
// must not modify it.
func (d *Dendrogram) Merges() []Merge { return d.merges }

// MergeDistances returns the n−1 merge heights in execution order.
func (d *Dendrogram) MergeDistances() []float64 {
	out := make([]float64, len(d.merges))
	for i, m := range d.merges {
		out[i] = m.Distance
	}
	return out
}
