package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"hmeans/internal/vecmath"
)

// The nearest-neighbour-chain algorithm builds the same dendrogram as
// the nearest-pair scan in O(n²) time instead of the scan's O(n³). It
// is the large-n path of NewDendrogramOpts (see Options.Algorithm);
// anyone clustering thousands of program phases or basic-block
// vectors (the scale of the paper's related work) lands here.
//
// NN-chain is exact for the *reducible* linkages — complete, single,
// average and Ward all are: merging two clusters never brings either
// closer to a third than the nearer of the pair was. The chain may
// discover merges out of height order, so the merge list is sorted
// and cluster ids relabelled afterwards, yielding a tree identical to
// the scan's whenever the pairwise merge heights are distinct (with
// ties, an equivalent tree).

// rawMerge records a merge in slot terms, to be relabelled later.
type rawMerge struct {
	a, b   int // slots at merge time (slot a absorbs b)
	height float64
	size   int
}

// nnChainState is the entire working set of one NN-chain run,
// allocated once by newNNChainState. Each step — growing the chain by
// one nearest neighbour or collapsing a reciprocal pair into a merge —
// then runs without any heap allocation: the chain and raw-merge
// slices are preallocated to their maximum sizes (n and n−1) and the
// Lance–Williams update writes the condensed matrix in place.
type nnChainState struct {
	w         *vecmath.CondensedMatrix
	l         Linkage
	n         int
	active    []bool
	size      []int
	chain     []int
	raws      []rawMerge
	remaining int
	// first is the chain-restart cursor. Restarts want the lowest
	// active slot; slots only ever deactivate, so that slot's index is
	// non-decreasing over the run and the cursor never rescans the
	// dead prefix — O(n) total instead of O(n) per restart.
	first int
}

func newNNChainState(w *vecmath.CondensedMatrix, l Linkage) *nnChainState {
	n := w.N()
	st := &nnChainState{
		w:         w,
		l:         l,
		n:         n,
		active:    make([]bool, n),
		size:      make([]int, n),
		chain:     make([]int, 0, n),
		raws:      make([]rawMerge, 0, n-1),
		remaining: n,
	}
	for i := range st.active {
		st.active[i] = true
		st.size[i] = 1
	}
	return st
}

// step advances the chain by one move: restart the chain from the
// first active slot if empty, then either append the chain top's
// nearest active neighbour or — when top and its predecessor are
// reciprocal nearest neighbours — merge them. Ties prefer the chain
// predecessor so reciprocal pairs terminate.
//
// The nearest-neighbour scan visits slots in ascending order exactly
// like the historical At-per-slot loop, but addresses the condensed
// triangle incrementally: pairs (s, top) with s < top walk down
// column top (stride n−s−2 per step), pairs with s > top run along
// top's contiguous row tail. Same comparisons in the same order —
// only the addressing changed.
func (st *nnChainState) step() {
	if len(st.chain) == 0 {
		for !st.active[st.first] {
			st.first++
		}
		st.chain = append(st.chain, st.first)
	}
	top := st.chain[len(st.chain)-1]
	prev := -1
	if len(st.chain) >= 2 {
		prev = st.chain[len(st.chain)-2]
	}
	data := st.w.Data()
	n := st.n
	nn := -1
	best := math.Inf(1)
	idx := top - 1 // idx(0, top)
	for s := 0; s < top; s++ {
		if st.active[s] {
			if ds := data[idx]; ds < best || (ds == best && s == prev) {
				nn, best = s, ds
			}
		}
		idx += n - s - 2
	}
	if top < n-1 {
		base := st.w.Index0(top) - top - 1 // idx(top, s) = base + s
		for s := top + 1; s < n; s++ {
			if st.active[s] {
				if ds := data[base+s]; ds < best || (ds == best && s == prev) {
					nn, best = s, ds
				}
			}
		}
	}
	if nn == prev && prev >= 0 {
		// Reciprocal nearest neighbours: merge prev and top.
		st.chain = st.chain[:len(st.chain)-2]
		a, b := prev, top
		mergeUpdateCondensed(st.l, st.w, st.active, st.size, a, b)
		height := best
		if st.l == Ward {
			height = math.Sqrt(height)
		}
		st.raws = append(st.raws, rawMerge{a: a, b: b, height: height, size: st.size[a] + st.size[b]})
		st.size[a] += st.size[b]
		st.active[b] = false
		st.remaining--
	} else {
		st.chain = append(st.chain, nn)
	}
}

// nnChainCancelSteps spaces the chain's cooperative cancellation
// checks: one context poll per this many chain moves keeps the poll
// overhead invisible while still reacting within a bounded slice of
// the O(n) work one move costs.
const nnChainCancelSteps = 256

// nnChainAgglomerate runs the chain to completion over a validated
// (and, for Ward, squared) working matrix, then relabels the
// discovered merges into d. progress, when non-nil, receives
// (mergesDone, totalMerges) at a coarse cadence.
func nnChainAgglomerate(ctx context.Context, w *vecmath.CondensedMatrix, l Linkage, d *Dendrogram, progress func(done, total int)) error {
	n := w.N()
	st := newNNChainState(w, l)
	progEvery := progressStride(n - 1)
	steps, reported := 0, 0
	for st.remaining > 1 {
		if steps%nnChainCancelSteps == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("cluster: NN-chain cancelled after %d of %d merges: %w", len(st.raws), n-1, err)
			}
		}
		st.step()
		steps++
		if progress != nil && len(st.raws)-reported >= progEvery {
			reported = len(st.raws)
			progress(reported, n-1)
		}
	}
	return relabelMerges(st.raws, n, d)
}

// relabelMerges sorts the chain's slot-level merges by height (stable,
// preserving discovery order among ties) and replays them assigning
// scipy-style cluster ids. Reducibility guarantees the sorted order is
// a valid bottom-up construction, so at replay time the two sides of
// every merge are exactly two existing clusters. A union-find over the
// leaves (path-halving; near-linear total) tracks which current
// cluster id holds each leaf — every slot began life as its leaf, so
// slot a at merge time identifies the cluster holding leaf a.
func relabelMerges(raws []rawMerge, n int, d *Dendrogram) error {
	order := make([]int, len(raws))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return raws[order[x]].height < raws[order[y]].height })

	parent := make([]int, n)
	clusterID := make([]int, n) // current cluster id at each set root
	for i := range parent {
		parent[i] = i
		clusterID[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	nextID := n
	for _, oi := range order {
		r := raws[oi]
		ra, rb := find(r.a), find(r.b)
		if ra == rb {
			return errors.New("cluster: NN-chain relabelling failed (non-reducible input?)")
		}
		ia, ib := clusterID[ra], clusterID[rb]
		if ia > ib {
			ia, ib = ib, ia
		}
		d.merges = append(d.merges, Merge{A: ia, B: ib, Distance: r.height, Size: r.size})
		parent[rb] = ra
		clusterID[ra] = nextID
		nextID++
	}
	return nil
}
