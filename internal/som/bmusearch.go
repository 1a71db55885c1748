package som

import (
	"fmt"
	"math"
	"sort"

	"hmeans/internal/vecmath"
)

// bmuSearch selects the best-matching-unit search strategy — the
// innermost loop of training, placement and the quality measures.
// Both concrete strategies return identical results, so the choice
// trades speed only.
type bmuSearch int

const (
	// bmuSearchAuto, the only mode production code uses, picks per
	// map: the brute scan below bmuPruneMinUnits units, the pruned
	// search at or above it.
	bmuSearchAuto bmuSearch = iota
	// bmuSearchBrute forces the flat scan over every unit — the
	// reference the pruned search is proven against.
	bmuSearchBrute
	// bmuSearchPruned forces the triangle-inequality pruned search:
	// units sorted by weight-vector norm, expanded outward from the
	// query's norm, each side abandoned once (‖x‖−‖w‖)² — a lower
	// bound on ‖x−w‖² — exceeds the best distance found. Exact: it
	// returns the same unit as the brute scan on every query,
	// including the lowest-index tie-break.
	bmuSearchPruned
)

// bmuPruneMinUnits is the unit count at which bmuSearchAuto switches
// from the brute scan to the pruned search. Below it the whole weight
// array fits in a few cache lines and the sort/binary-search overhead
// of the index buys nothing; the paper's ~5√n grid heuristic crosses
// it around n ≈ 160 samples.
const bmuPruneMinUnits = 64

// bmuIndex is the pruned search's precomputed view of a frozen weight
// array: unit norms ascending, with the owning unit of each entry.
// Weights mutate during training, so the index is rebuilt at every
// safe point (each batch epoch boundary, end of training) and must
// never exist while weights are being written.
type bmuIndex struct {
	norms []float64
	ids   []int
}

// buildBMUIndex sorts the units by weight-vector norm. Equal norms
// keep ascending unit order (stable sort), which the pruned search's
// tie-break relies on never mattering: it compares candidate unit ids
// directly.
func (m *Map) buildBMUIndex() *bmuIndex {
	units := len(m.weights)
	raw := make([]float64, units)
	for u, w := range m.weights {
		s := 0.0
		for _, v := range w {
			s += v * v
		}
		raw[u] = math.Sqrt(s)
	}
	ids := make([]int, units)
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool { return raw[ids[a]] < raw[ids[b]] })
	norms := make([]float64, units)
	for k, u := range ids {
		norms[k] = raw[u]
	}
	return &bmuIndex{norms: norms, ids: ids}
}

// resolveBMUSearch collapses bmuSearchAuto to a concrete mode for this
// map's size.
func (m *Map) resolveBMUSearch(mode bmuSearch) bmuSearch {
	if mode != bmuSearchAuto {
		return mode
	}
	if len(m.weights) >= bmuPruneMinUnits {
		return bmuSearchPruned
	}
	return bmuSearchBrute
}

// setBMUSearch selects the BMU search strategy for subsequent queries
// (Position, Placements, the quality measures) on the now-frozen
// weights, building or dropping the pruned index as needed.
func (m *Map) setBMUSearch(mode bmuSearch) {
	if m.resolveBMUSearch(mode) == bmuSearchPruned {
		m.index = m.buildBMUIndex()
	} else {
		m.index = nil
	}
}

// bmuPruneBound is the pruning threshold for the current best squared
// distance: a side of the norm-sorted expansion is abandoned when its
// norm gap squared exceeds it. In exact arithmetic gap² ≤ ‖x−w‖²
// (reverse triangle inequality), so pruning at exactly best would
// already be safe; the relative and norm-scaled absolute slack absorb
// the rounding of the two norm computations, keeping the prune
// strictly conservative — a pruned unit can never have beaten or tied
// the running best — which is what makes the search exact, tie-break
// included.
func bmuPruneBound(best, xSq float64) float64 {
	return best*(1+1e-9) + 1e-12*(1+xSq)
}

// bmuPruned is the exact pruned BMU search; see bmuSearchPruned. The
// candidate distance loop is byte-for-byte the brute scan's
// arithmetic, so any unit both paths evaluate gets the identical
// squared distance; the comparison accepts a tie only from a
// lower-index unit, reproducing the brute scan's first-minimal
// winner.
func (m *Map) bmuPruned(x vecmath.Vector) (unit int, sqDist float64) {
	dim := m.dim
	if len(x) != dim {
		panic(fmt.Sprintf("som: input dim %d != map dim %d", len(x), dim))
	}
	idx := m.index
	xSq := 0.0
	for _, v := range x {
		xSq += v * v
	}
	xn := math.Sqrt(xSq)
	norms, ids, flat := idx.norms, idx.ids, m.flat
	lo := sort.SearchFloat64s(norms, xn) - 1
	hi := lo + 1
	bestU, best := -1, math.Inf(1)
	for lo >= 0 || hi < len(norms) {
		// Expand the side with the smaller norm gap. Gaps grow
		// monotonically outward on each side, so once the smaller gap
		// fails the bound both sides are exhausted.
		gapLo, gapHi := math.Inf(1), math.Inf(1)
		if lo >= 0 {
			gapLo = xn - norms[lo]
		}
		if hi < len(norms) {
			gapHi = norms[hi] - xn
		}
		var k int
		if gapLo <= gapHi {
			if gapLo*gapLo > bmuPruneBound(best, xSq) {
				break
			}
			k, lo = lo, lo-1
		} else {
			if gapHi*gapHi > bmuPruneBound(best, xSq) {
				break
			}
			k, hi = hi, hi+1
		}
		u := ids[k]
		w := flat[u*dim : u*dim+dim]
		sum := 0.0
		for i, xi := range x {
			d := xi - w[i]
			sum += d * d
		}
		if sum < best || (sum == best && u < bestU) {
			bestU, best = u, sum
		}
	}
	return bestU, best
}
