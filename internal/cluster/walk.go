package cluster

import (
	"fmt"
	"sort"
)

// EachCut calls fn with the cut into k clusters for every k in
// [kMin, kMax], clamped to [1, n], in increasing k. It walks the
// dendrogram top-down once instead of re-cutting at every k: the cut
// at k+1 is the cut at k with the cluster made by the last applied
// merge split back into that merge's two children. The labels fn sees
// equal CutK(k)'s, canonical order included. fn receives one label
// slice that the next step overwrites in place, so it must not modify
// the labels and must copy them to keep them. An inverted range is a
// typed ErrDegenerateCut; the first error fn returns stops the walk
// and is returned.
func (d *Dendrogram) EachCut(kMin, kMax int, fn func(Assignment) error) error {
	if kMin > kMax {
		return &CutError{N: d.n, Reason: fmt.Sprintf("empty cut range [%d, %d]", kMin, kMax)}
	}
	kMin, kMax = max(kMin, 1), min(kMax, d.n)
	if kMin > kMax {
		return nil
	}
	w := d.newCutWalk(kMin)
	for {
		if err := fn(Assignment{Labels: w.labels, K: w.k}); err != nil {
			return err
		}
		if w.k == kMax {
			return nil
		}
		w.split()
	}
}

// cutWalk holds one cut of a dendrogram and steps it to the next k.
// Node ids follow Merge: leaves are 0..n-1 and merge s creates n+s.
type cutWalk struct {
	merges []Merge
	n, k   int
	// labels is the canonical labelling of the current cut.
	labels []int
	// size[id] counts the leaves under node id. It is derived from the
	// tree, not read from Merge.Size, which LoadDendrogram does not
	// validate.
	size []int
	// lo[id] is where node id's leaves start in the tree's own leaf
	// order, in which every subtree is contiguous: leaf x lies under
	// node id iff lo[id] <= lo[x] < lo[id]+size[id].
	lo []int
	// order lists the leaves grouped by active cluster, ascending
	// within each group; start[id] is where active cluster id's group
	// begins.
	order, start []int
	// byLabel lists the active clusters' node ids in label order, which
	// is the order of their lowest leaves.
	byLabel []int
	// rest holds the second child's leaves while split partitions a
	// group.
	rest []int
}

// newCutWalk returns the walk positioned at the cut into k clusters,
// 1 <= k <= n.
func (d *Dendrogram) newCutWalk(k int) *cutWalk {
	n := d.n
	nodes := 2*n - 1
	w := &cutWalk{
		merges:  d.merges,
		n:       n,
		k:       k,
		labels:  make([]int, n),
		size:    make([]int, nodes),
		lo:      make([]int, nodes),
		order:   make([]int, n),
		start:   make([]int, nodes),
		byLabel: make([]int, 0, n),
		rest:    make([]int, n),
	}
	up := make([]int, nodes) // parent of each node; the root has none
	up[nodes-1] = -1
	for i := 0; i < n; i++ {
		w.size[i] = 1
	}
	for s, m := range d.merges {
		w.size[n+s] = w.size[m.A] + w.size[m.B]
		up[m.A], up[m.B] = n+s, n+s
	}
	for s := len(d.merges) - 1; s >= 0; s-- {
		m := d.merges[s]
		w.lo[m.A] = w.lo[n+s]
		w.lo[m.B] = w.lo[n+s] + w.size[m.A]
	}
	// The cut applies merges 0..n-k-1, so the nodes below top exist
	// and a node is a cluster when its parent does not. Parents have
	// higher ids than their children, so a descending pass turns up
	// into each existing node's cluster.
	top := 2*n - k
	for id := top - 1; id >= 0; id-- {
		if p := up[id]; p < 0 || p >= top {
			up[id] = id
		} else {
			up[id] = up[p]
		}
	}
	// Clusters take labels in the order of their lowest leaves; each
	// group is filled in ascending leaf order, start serving as the
	// group's fill cursor until every leaf is placed.
	for i := range w.start {
		w.start[i] = -1
	}
	next := 0
	for leaf := 0; leaf < n; leaf++ {
		c := up[leaf]
		if w.start[c] < 0 {
			w.start[c] = next
			next += w.size[c]
			w.byLabel = append(w.byLabel, c)
		}
		w.order[w.start[c]] = leaf
		w.start[c]++
	}
	for l, c := range w.byLabel {
		w.start[c] -= w.size[c]
		for _, x := range w.members(c) {
			w.labels[x] = l
		}
	}
	return w
}

// members returns active cluster id's leaves in ascending order.
func (w *cutWalk) members(id int) []int {
	return w.order[w.start[id] : w.start[id]+w.size[id]]
}

// split steps the cut from k to k+1 clusters: cluster c, made by the
// last applied merge, splits into that merge's children. It returns
// c and the children, a being the one with c's lowest leaf. a keeps
// c's label; b takes the rank of its lowest leaf among the clusters'
// lowest leaves, and every later label moves up by one.
func (w *cutWalk) split() (c, a, b int) {
	s := w.n - w.k - 1
	m := w.merges[s]
	c, a, b = w.n+s, m.A, m.B
	// Stable partition of c's group: a's leaves, then b's.
	group := w.members(c)
	lo, hi := w.lo[a], w.lo[a]+w.size[a]
	na, nb := 0, 0
	for _, x := range group {
		if p := w.lo[x]; p >= lo && p < hi {
			group[na] = x
			na++
		} else {
			w.rest[nb] = x
			nb++
		}
	}
	copy(group[na:], w.rest[:nb])
	w.start[a], w.start[b] = w.start[c], w.start[c]+na
	if w.order[w.start[b]] < w.order[w.start[a]] {
		a, b = b, a
	}
	keep := w.labels[w.order[w.start[a]]]
	w.byLabel[keep] = a
	minB := w.order[w.start[b]]
	lb := sort.Search(len(w.byLabel), func(l int) bool {
		return w.order[w.start[w.byLabel[l]]] > minB
	})
	w.byLabel = append(w.byLabel, 0)
	copy(w.byLabel[lb+1:], w.byLabel[lb:])
	w.byLabel[lb] = b
	for x, l := range w.labels {
		if l >= lb {
			w.labels[x] = l + 1
		}
	}
	for _, x := range w.members(b) {
		w.labels[x] = lb
	}
	w.k++
	return c, a, b
}
