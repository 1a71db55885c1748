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
	// Algorithm selects the agglomeration strategy. The default
	// AlgoAuto runs the historical O(n³) nearest-pair scan up to
	// autoThreshold points and the O(n²) NN-chain above it; AlgoScan
	// and AlgoNNChain force one path. The two algorithms produce
	// identical merge sequences whenever pairwise merge heights are
	// distinct; with ties (common for integer SOM grid positions) they
	// build equivalent trees — same height multiset, possibly
	// different ids — that can cut differently, which is why auto
	// keeps small suites on the scan's historical output.
	Algorithm Algorithm
}

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
	algo, err := opt.effectiveAlgorithm(n)
	if err != nil {
		return nil, err
	}
	o := obs.Or(opt.Obs)
	sp := o.StartSpan("cluster.linkage",
		obs.KV("n", n), obs.KV("linkage", l.String()), obs.KV("algorithm", algo.String()))
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

	// w holds the working pairwise distances between *active*
	// clusters, indexed by slot in [0, n); slot i initially holds leaf
	// i. After a merge the merged cluster reuses the lower slot and
	// the higher slot is deactivated. One pass over the row tails
	// validates every distance (the first invalid one in row order is
	// the error) and squares it for Ward.
	for i := 0; i < n-1; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cluster: building working distances: %w", err)
		}
		row := w.RowTail(i)
		for t, v := range row {
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("cluster: invalid distance %v at (%d,%d)", v, i, i+1+t)
			}
			if l == Ward {
				row[t] = v * v
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
	if algo == AlgoNNChain {
		var progress func(done, total int)
		if progGauge != nil {
			progress = func(done, total int) { progGauge.Set(float64(done) / float64(total)) }
		}
		if err := nnChainAgglomerate(ctx, w, l, d, progress); err != nil {
			return nil, err
		}
		for step, mg := range d.merges {
			mergeHist.Observe(mg.Distance)
			if mergeEvents {
				sp.Event("cluster.merge", obs.KV("step", step), obs.KV("a", mg.A), obs.KV("b", mg.B),
					obs.KV("distance", mg.Distance), obs.KV("size", mg.Size))
			}
		}
		progGauge.Set(1)
		return d, nil
	}
	active := make([]bool, n)
	id := make([]int, n)   // cluster id held by each slot
	size := make([]int, n) // leaf count per slot
	for i := range active {
		active[i] = true
		id[i] = i
		size[i] = 1
	}

	nextID := n
	progEvery := progressStride(n - 1)
	for step := 0; step < n-1; step++ {
		// The agglomeration cancels between merge steps: each step is
		// one O(n²) scan, so this is the natural checkpoint spacing.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cluster: linkage cancelled at step %d of %d: %w", step, n-1, err)
		}
		// Find the closest active pair: the first strictly minimal
		// pair in row-major order. Row i's tail is contiguous: entry t
		// is pair (i, i+1+t).
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			row := w.RowTail(i)
			for t, dv := range row {
				if !active[i+1+t] {
					continue
				}
				if dv < best {
					bi, bj, best = i, i+1+t, dv
				}
			}
		}
		// Update distances from the merged cluster (slot bi) to every
		// other active cluster via Lance–Williams.
		mergeUpdateCondensed(l, w, active, size, bi, bj)
		height := best
		if l == Ward {
			height = math.Sqrt(best)
		}
		a, b := id[bi], id[bj]
		if a > b {
			a, b = b, a
		}
		d.merges = append(d.merges, Merge{A: a, B: b, Distance: height, Size: size[bi] + size[bj]})
		mergeHist.Observe(height)
		if mergeEvents {
			sp.Event("cluster.merge", obs.KV("step", step), obs.KV("a", a), obs.KV("b", b),
				obs.KV("distance", height), obs.KV("size", size[bi]+size[bj]))
		}
		size[bi] += size[bj]
		id[bi] = nextID
		nextID++
		active[bj] = false
		if progGauge != nil && (step+1)%progEvery == 0 {
			progGauge.Set(float64(step+1) / float64(n-1))
		}
	}
	progGauge.Set(1)
	return d, nil
}

// progressStride spaces progress reports over total units of work:
// roughly 64 updates per run, never more often than every unit.
func progressStride(total int) int {
	stride := total / 64
	if stride < 1 {
		stride = 1
	}
	return stride
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
