package cluster

import (
	"math"

	"hmeans/internal/vecmath"
)

// scanMerges is the O(n³) nearest-pair scan, the definition of the
// merge order fromCondensed must reproduce bit for bit: every step
// merges the first strictly minimal active pair in row-major order —
// the lowest slot, then the lowest partner — and applies the
// reference Lance–Williams pass. It consumes w, which must hold valid
// distances; Ward squares them first and reports heights on the
// original scale.
func scanMerges(w *vecmath.CondensedMatrix, l Linkage) []Merge {
	n := w.N()
	if l == Ward {
		for s, v := range w.Data() {
			w.Data()[s] = v * v
		}
	}
	active := make([]bool, n)
	id := make([]int, n)
	size := make([]int, n)
	for i := range active {
		active[i], id[i], size[i] = true, i, 1
	}
	merges := make([]Merge, 0, n-1)
	for step := 0; step < n-1; step++ {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for t, dv := range w.RowTail(i) {
				if active[i+1+t] && dv < best {
					bi, bj, best = i, i+1+t, dv
				}
			}
		}
		l.mergeUpdate(w, active, size, bi, bj)
		height := best
		if l == Ward {
			height = math.Sqrt(best)
		}
		a, b := id[bi], id[bj]
		if a > b {
			a, b = b, a
		}
		merges = append(merges, Merge{A: a, B: b, Distance: height, Size: size[bi] + size[bj]})
		size[bi] += size[bj]
		id[bi] = n + step
		active[bj] = false
	}
	return merges
}

// mergeUpdate is the reference Lance–Williams pass: for every other
// active slot k, ascending, the distance d(a∪b, k) replaces slot
// (a, k), addressed through At/Set. The merge walk of fromCondensed
// makes the same update calls with the same arguments
// (TestMergeUpdateCondensedMatchesReference).
func (l Linkage) mergeUpdate(w *vecmath.CondensedMatrix, active []bool, size []int, a, b int) {
	dab := w.At(a, b)
	n := w.N()
	for k := 0; k < n; k++ {
		if !active[k] || k == a || k == b {
			continue
		}
		w.Set(a, k, l.update(w.At(a, k), w.At(b, k), dab, size[a], size[b], size[k]))
	}
}

// sameMerges reports whether two merge lists are equal bit for bit,
// heights compared by their float64 bits so a NaN height matches
// itself. It returns the first differing index, or −1.
func sameMerges(got, want []Merge) int {
	for i := range want {
		if i >= len(got) {
			return i
		}
		g, w := got[i], want[i]
		if g.A != w.A || g.B != w.B || g.Size != w.Size ||
			math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
			return i
		}
	}
	if len(got) != len(want) {
		return len(want)
	}
	return -1
}

// cloneCondensed returns an independent copy of cm, for tests that
// hand the same matrix to a consuming core more than once.
func cloneCondensed(cm *vecmath.CondensedMatrix) *vecmath.CondensedMatrix {
	out := vecmath.NewCondensedMatrix(cm.N())
	copy(out.Data(), cm.Data())
	return out
}

// condensedOf builds an n-point condensed matrix from its row-major
// upper-triangle entries.
func condensedOf(n int, entries ...float64) *vecmath.CondensedMatrix {
	cm := vecmath.NewCondensedMatrix(n)
	copy(cm.Data(), entries)
	return cm
}
