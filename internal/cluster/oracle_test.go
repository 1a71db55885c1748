package cluster

import "hmeans/internal/vecmath"

// mergeUpdate is the reference Lance–Williams pass: for every other
// active slot k (ascending, matching the historical dense update
// order) the distance d(a∪b, k) replaces slot (a, k), addressed
// through At/Set. TestMergeUpdateCondensedMatchesReference proves the
// production pass, mergeUpdateCondensed, bit-identical to it.
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
