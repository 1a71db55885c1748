// Package som implements the Self-Organizing Map (Kohonen map) used
// by the paper as its dimension-reduction stage.
//
// A SOM is a 2-D grid of units; each unit i carries a weight vector
// w_i in the input space and a fixed location vector r_i on the grid.
// Training is competitive: for each input x the best matching unit
// (BMU) — the unit whose weight is nearest in Euclidean distance — and
// its grid neighbours are pulled toward x:
//
//	w_i(n+1) = w_i(n) + h_ci(n) [x(n) − w_i(n)]
//	h_ci(n)  = α(n) · exp(−‖r_c − r_i‖² / 2σ²(n))
//
// with learning rate α(n) and neighbourhood radius σ(n) both
// monotonically decreasing in the step number n, exactly the update
// rule of the paper's Section III-A. After training, each workload
// maps to its BMU cell; workloads that share or neighbour a cell are
// similar in the original high-dimensional space.
package som

import (
	"errors"
	"fmt"
	"math"

	"hmeans/internal/obs"
	"hmeans/internal/vecmath"
)

// Config describes a map and its training regime.
type Config struct {
	// Rows and Cols give the unit-grid shape. The paper uses small
	// 2-D maps (its figures are ~10×10).
	Rows, Cols int
	// Steps is the number of sequential training steps (input
	// presentations). If zero, 500 × number of units is used, a
	// common heuristic from Kohonen's SOM_PAK.
	Steps int
	// Parallelism is ignored: training and placement run on one
	// goroutine.
	//
	// Deprecated: kept only because perfbench/replay.go sets it; it
	// goes with the next benchmark change.
	Parallelism int
	// Seed drives sample-selection order and, when the samples cannot
	// support a PCA plane, random initialization.
	Seed uint64
	// Obs receives training telemetry: a som.train span with a
	// som.start child, periodic som.step events, the
	// som.start.built / som.start.reused and som.schedule.built /
	// som.schedule.reused counters, and the som.schedule.bytes gauge.
	// Nil falls back to the process-default observer; instrumentation
	// never affects the trained weights.
	Obs *obs.Observer
	// Starts, when non-nil, is a table of training starts and kernel
	// schedules shared across runs: a run on a grid and samples the
	// table already holds reuses that start instead of recomputing the
	// PCA plane and span coordinates, and a run on a grid and step
	// count it already holds reads that schedule instead of computing
	// its kernel, and trains bit-identical weights. Nil builds every
	// run's start afresh and computes its kernel a block of steps at a
	// time.
	Starts *Starts
}

// GridFor returns a recommended grid shape for n samples using the
// SOM Toolbox heuristic of ≈5√n units. Grids much larger than this
// (e.g. 100 units for 13 workloads) magnify tight sample blobs across
// many cells and make the BMU geometry — and therefore the clustering
// the paper builds on it — fragile to the training seed.
func GridFor(n int) (rows, cols int) {
	if n < 1 {
		n = 1
	}
	units := int(math.Ceil(5 * math.Sqrt(float64(n))))
	cols = int(math.Sqrt(float64(units)))
	if cols < 2 {
		cols = 2
	}
	rows = (units + cols - 1) / cols
	if rows < 2 {
		rows = 2
	}
	return rows, cols
}

// Map is a trained (or initialized) self-organizing map.
//
// The unit weights live in one contiguous []float64 backing array
// (unit u occupies flat[u*dim : (u+1)*dim]); weights[u] is a view
// into it. Contiguous storage keeps the BMU scan — the innermost loop
// of training — walking a single cache-friendly array, and makes the whole grid one allocation instead of
// rows×cols+1.
type Map struct {
	rows, cols int
	dim        int
	// flat is the contiguous backing array of every unit weight.
	flat []float64
	// weights[u] is the weight vector of unit u = r*cols + c, a view
	// into flat.
	weights []vecmath.Vector
	// locations[u] is the fixed grid location vector of unit u; views
	// into one contiguous backing array like the weights.
	locations []vecmath.Vector
	// index is the pruned search's norm-sorted view of the weights.
	// Training builds it after the last weight update, for every map
	// it returns; a map read by Load has none. Nil selects the brute
	// scan.
	index *bmuIndex
}

// ErrNoData is returned when training is attempted on an empty
// sample set.
var ErrNoData = errors.New("som: no training samples")

func (c *Config) withDefaults() Config {
	out := *c
	if out.Rows <= 0 {
		out.Rows = 10
	}
	if out.Cols <= 0 {
		out.Cols = 10
	}
	if out.Steps <= 0 {
		out.Steps = 500 * out.Rows * out.Cols
	}
	return out
}

// newMap allocates the unit grid with zero weights: one contiguous
// backing array per plane (weights, locations) plus the view headers.
func newMap(rows, cols, dim int) *Map {
	units := rows * cols
	m := &Map{rows: rows, cols: cols, dim: dim}
	m.flat, m.weights = newPlane(units, dim)
	_, m.locations = newPlane(units, 2)
	for u, loc := range m.locations {
		loc[0], loc[1] = float64(u/cols), float64(u%cols)
	}
	return m
}

// newPlane allocates units vectors of length width as views into one
// contiguous backing array, which it also returns.
func newPlane(units, width int) (flat []float64, views []vecmath.Vector) {
	flat = make([]float64, units*width)
	views = make([]vecmath.Vector, units)
	for u := range views {
		views[u] = vecmath.Vector(flat[u*width : (u+1)*width : (u+1)*width])
	}
	return flat, views
}

// Rows returns the grid height.
func (m *Map) Rows() int { return m.rows }

// Cols returns the grid width.
func (m *Map) Cols() int { return m.cols }

// Dim returns the input dimensionality.
func (m *Map) Dim() int { return m.dim }

// Weight returns the weight vector of the unit at grid row r,
// column c. The returned vector is a live view; callers must not
// modify it.
func (m *Map) Weight(r, c int) vecmath.Vector { return m.weights[r*m.cols+c] }

// Location returns the grid location vector of unit (r, c).
func (m *Map) Location(r, c int) vecmath.Vector { return m.locations[r*m.cols+c] }

// BMU returns the grid coordinates of the best matching unit for x:
// the unit minimizing Euclidean distance between x and its weight
// vector. Ties break toward the lower unit index, which keeps
// training deterministic.
func (m *Map) BMU(x vecmath.Vector) (row, col int) {
	u, _ := m.bmu(x)
	return u / m.cols, u % m.cols
}

// bmu returns the best matching unit's index and its squared
// Euclidean distance to x: the pruned search on a trained map, the
// brute scan on a loaded one. Both return the same unit.
func (m *Map) bmu(x vecmath.Vector) (unit int, sqDist float64) {
	if m.index != nil {
		return m.bmuPruned(x)
	}
	return m.bmuBrute(x)
}

// bmuBrute is the reference flat scan over every unit.
//
// The scan walks the contiguous weight array directly with the
// dimension check and metric fixed outside the loop: same squared-
// Euclidean arithmetic as vecmath.SquaredEuclidean in the same
// element order (so the winner — and training — is bit-identical),
// without per-unit slice-header loads or length asserts.
func (m *Map) bmuBrute(x vecmath.Vector) (unit int, sqDist float64) {
	dim := m.dim
	if len(x) != dim {
		panic(fmt.Sprintf("som: input dim %d != map dim %d", len(x), dim))
	}
	flat := m.flat
	best, bestDist := 0, math.Inf(1)
	for u, off := 0, 0; off < len(flat); u, off = u+1, off+dim {
		w := flat[off : off+dim]
		sum := 0.0
		for i, xi := range x {
			d := xi - w[i]
			sum += d * d
		}
		if sum < bestDist {
			best, bestDist = u, sum
		}
	}
	return best, bestDist
}

// twoBMUs returns the unit indices of the two closest units, used
// by the topographic-error quality measure.
func (m *Map) twoBMUs(x vecmath.Vector) (first, second int) {
	d0 := vecmath.SquaredEuclidean(x, m.weights[0])
	d1 := vecmath.SquaredEuclidean(x, m.weights[1])
	if d1 < d0 {
		first, second = 1, 0
		d0, d1 = d1, d0
	} else {
		first, second = 0, 1
	}
	for u := 2; u < len(m.weights); u++ {
		d := vecmath.SquaredEuclidean(x, m.weights[u])
		switch {
		case d < d0:
			second, d1 = first, d0
			first, d0 = u, d
		case d < d1:
			second, d1 = u, d
		}
	}
	return first, second
}

// Position returns the BMU grid coordinates of x as a 2-D vector;
// this is the "reduced dimension" the clustering stage consumes.
func (m *Map) Position(x vecmath.Vector) vecmath.Vector {
	r, c := m.BMU(x)
	return vecmath.Vector{float64(r), float64(c)}
}
