package som

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"hmeans/internal/vecmath"
)

// bmuIndex is the pruned search's precomputed view of a frozen weight
// array: unit norms ascending, with the owning unit of each entry.
// Weights mutate during training, so the index is built once training
// ends and must never exist while weights are being written.
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

// bmuPruned is the triangle-inequality pruned BMU search of a trained
// map: units sorted by weight-vector norm, expanded outward from the
// query's norm, each side abandoned once (‖x‖−‖w‖)² — a lower bound
// on ‖x−w‖² — exceeds the best distance found. It is exact: it
// returns bmuBrute's unit on every query, lowest-index tie-break
// included. The candidate distance loop is byte-for-byte the brute scan's
// arithmetic, so any unit both paths evaluate gets the identical
// squared distance; the comparison accepts a tie only from a
// lower-index unit, reproducing the brute scan's first-minimal
// winner. A query whose norm or every distance is not finite goes to
// bmuBrute.
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
	if !(xSq < math.Inf(1)) {
		// A NaN or overflowing norm orders nothing; the norm search
		// needs a finite one.
		return m.bmuBrute(x)
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
	if bestU < 0 {
		// Every distance overflowed, so no unit beat the initial +Inf.
		return m.bmuBrute(x)
	}
	return bestU, best
}

// bmuBlock is the seeded search's abandon stride: a unit's running
// sum is tested against the best after every bmuBlock coordinates.
const bmuBlock = 8

// bmuSeeded is training's BMU search: the partial-distance search of
// vector quantization, seeded with a guess. The guess unit's full
// squared distance is the first bound. Every other unit, in index
// order, accumulates its squared distance in bmuBrute's element
// order and is abandoned as soon as the running sum, tested every
// bmuBlock coordinates, strictly exceeds the best so far; a unit that
// completes wins on a smaller sum, or on an equal sum from a lower
// index. The sums only grow, so an abandoned unit can neither beat
// nor tie the best, and the winner is exactly bmuBrute's (DESIGN.md
// §17). A guess whose distance is not finite is no bound; that query
// goes to bmuBrute. coords counts the coordinates summed: the
// guess's, and each other unit's up to its abandon test or its end.
// Where the CPU has AVX2, at dims of 4 and more on maps of 4 units and
// more, the other units go eight at a time through bmuAVX2
// (bmuEight), and coords counts the lane-coordinates it summed.
func (m *Map) bmuSeeded(x vecmath.Vector, guess int) (unit, coords int) {
	dim := m.dim
	if len(x) != dim {
		panic(fmt.Sprintf("som: input dim %d != map dim %d", len(x), dim))
	}
	flat := m.flat
	best, bestDist := guess, 0.0
	for i, w := range flat[guess*dim : guess*dim+dim] {
		d := x[i] - w
		bestDist += d * d
	}
	if !(bestDist < math.Inf(1)) {
		unit, _ = m.bmuBrute(x)
		return unit, len(flat) + dim
	}
	if useAVX2 && dim >= 4 && len(flat) >= 4*dim {
		unit, coords = m.bmuEight(x, guess, bestDist)
		return unit, dim + coords
	}
	coords = dim
	blocks := dim - dim%bmuBlock
units:
	for u, off := 0, 0; off < len(flat); u, off = u+1, off+dim {
		if u == guess {
			continue
		}
		w := flat[off : off+dim]
		sum := 0.0
		j := 0
		for ; j < blocks; j += bmuBlock {
			xb, wb := x[j:j+bmuBlock], w[j:j+bmuBlock]
			d0 := xb[0] - wb[0]
			sum += d0 * d0
			d1 := xb[1] - wb[1]
			sum += d1 * d1
			d2 := xb[2] - wb[2]
			sum += d2 * d2
			d3 := xb[3] - wb[3]
			sum += d3 * d3
			d4 := xb[4] - wb[4]
			sum += d4 * d4
			d5 := xb[5] - wb[5]
			sum += d5 * d5
			d6 := xb[6] - wb[6]
			sum += d6 * d6
			d7 := xb[7] - wb[7]
			sum += d7 * d7
			if sum > bestDist {
				coords += j + bmuBlock
				continue units
			}
		}
		for ; j < dim; j++ {
			d := x[j] - w[j]
			sum += d * d
		}
		coords += dim
		if sum < bestDist || (sum == bestDist && u < best) {
			best, bestDist = u, sum
		}
	}
	return best, coords
}

// bmuEight is bmuSeeded's scan of the units other than the guess, from
// the guess's squared distance best, on a map of at least 4 units and
// a dim of at least 4: groups of eight units in index order, each
// summed by one bmuAVX2 call against the best distance found before
// the group. That bound is never below the one the Go loop tests a
// unit against, so the kernel drops only units the Go loop drops and
// the winner is the same (DESIGN.md §17). The last group ends at the
// last unit, so that every unit runs in the kernel and every read
// stays inside m.flat; its lanes that repeat a unit an earlier group
// or its own lanes 0–3 visited are dropped from the start, as is the
// guess's lane in every group. Each lane the kernel leaves live adds
// the last dim mod 4 squares in element order and then takes the best
// on a smaller sum, or on an equal sum from a lower index. coords
// counts the lane-coordinates summed.
func (m *Map) bmuEight(x vecmath.Vector, guess int, best float64) (unit, coords int) {
	dim, flat := m.dim, m.flat
	units := len(flat) / dim
	tail := dim &^ 3
	unit = guess
	var sums [8]float64
	for u := 0; u < units; u += 8 {
		// Lanes 0–3 hold units a…a+3 and lanes 4–7 units b…b+3.
		a, b, live := u, u+4, uint64(0xff)
		if u+8 > units {
			a, b, live = max(units-8, 0), units-4, 0
			for l := range 8 {
				if v := laneUnit(a, b, l); v >= u && (l < 4 || v >= a+4) {
					live |= 1 << l
				}
			}
		}
		if d := uint(guess - a); d < 4 {
			live &^= 1 << d
		}
		if d := uint(guess - b); d < 4 {
			live &^= 1 << (4 + d)
		}
		if live == 0 {
			continue
		}
		left, k := bmuAVX2(&sums, x, flat[a*dim:(b+4)*dim], (b-a)*dim, best, live)
		coords += k
		for ; left != 0; left &= left - 1 {
			l := bits.TrailingZeros64(left)
			v := laneUnit(a, b, l)
			sum := sums[l]
			w := flat[v*dim : v*dim+dim]
			for j := tail; j < dim; j++ {
				d := x[j] - w[j]
				sum += d * d
			}
			coords += dim - tail
			if sum < best || (sum == best && v < unit) {
				unit, best = v, sum
			}
		}
	}
	return unit, coords
}

// laneUnit is the unit in lane l of a bmuAVX2 group whose lanes 0–3
// hold units a…a+3 and lanes 4–7 units b…b+3.
func laneUnit(a, b, l int) int {
	if l < 4 {
		return a + l
	}
	return b + l - 4
}
