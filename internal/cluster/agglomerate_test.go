package cluster

import (
	"context"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

var allLinkages = []Linkage{Complete, Single, Average, Ward}

// oracleSuite draws one seeded point set for the oracle comparison:
// random points in general position (2 ≤ n ≤ 160), or points on a
// 3×3 grid (2 ≤ n ≤ 128), a 6×6 grid (129 ≤ n ≤ 180) or a 7×7 grid
// (129 ≤ n ≤ 180, up to 400 for every tenth seed). Grid points
// coincide the way SOM cells do, so most merge heights tie and the
// tie-break decides the tree.
func oracleSuite(seed uint64) []vecmath.Vector {
	r := rng.New(seed)
	var n, cells int
	switch seed % 4 {
	case 0:
		return randomPoints(2+r.Intn(159), 1+r.Intn(3), seed)
	case 1:
		n, cells = 2+r.Intn(127), 3
	case 2:
		n, cells = 129+r.Intn(52), 6
	default:
		n, cells = 129+r.Intn(52), 7
		if seed%10 == 3 {
			n = 129 + r.Intn(272)
		}
	}
	pts := make([]vecmath.Vector, n)
	for i := range pts {
		pts[i] = vecmath.Vector{float64(r.Intn(cells)), float64(r.Intn(cells))}
	}
	return pts
}

// TestMergesMatchScanOracle proves the one agglomeration loop exact:
// on 1,000 seeded suites × linkage cases (100 under -short or -race),
// random and tied-grid inputs with n on both sides of 128, the merges
// of NewDendrogramOpts equal the O(n³) scan's bit for bit — ids,
// sizes and heights, Average and Ward rounding included.
func TestMergesMatchScanOracle(t *testing.T) {
	seeds := 250
	if testing.Short() || raceEnabled {
		seeds = 25
	}
	var above128 int
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		pts := oracleSuite(seed)
		if len(pts) > 128 {
			above128++
		}
		cm, err := vecmath.CondensedDistanceMatrixCtx(context.Background(), vecmath.Euclidean, pts)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range allLinkages {
			d, err := NewDendrogramOpts(pts, vecmath.Euclidean, l, Options{})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, l, err)
			}
			want := scanMerges(cloneCondensed(cm), l)
			if i := sameMerges(d.Merges(), want); i >= 0 {
				t.Fatalf("seed %d n=%d %v: merge %d is %+v, scan %+v", seed, len(pts), l, i, d.Merges()[i], want[i])
			}
		}
	}
	if above128 == 0 || above128 == seeds {
		t.Fatalf("%d of %d suites above 128 points; the cases must cover both sides", above128, seeds)
	}
}

// assertScanMerges fails t unless NewDendrogramOpts on pts under l
// yields the oracle scan's merges bit for bit, and returns the
// dendrogram.
func assertScanMerges(t *testing.T, pts []vecmath.Vector, l Linkage, label string) *Dendrogram {
	t.Helper()
	cm, err := vecmath.CondensedDistanceMatrixCtx(context.Background(), vecmath.Euclidean, pts)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDendrogramOpts(pts, vecmath.Euclidean, l, Options{})
	if err != nil {
		t.Fatalf("%s %v: %v", label, l, err)
	}
	want := scanMerges(cm, l)
	if i := sameMerges(d.Merges(), want); i >= 0 {
		t.Fatalf("%s n=%d %v: merge %d is %+v, scan %+v", label, len(pts), l, i, d.Merges()[i], want[i])
	}
	return d
}

// TestScanChainMergeIdentity keeps the name of the scan-versus-NN-chain
// identity check that ran before the one loop replaced NN-chain, on
// the same inputs: Gaussian points (distinct heights) at 20 ≤ n ≤ 139,
// seeds 1–5, all four linkages. The loop must now match the scan bit
// for bit, Average and Ward heights included, where NN-chain was held
// only to 1e-9 relative.
func TestScanChainMergeIdentity(t *testing.T) {
	for _, l := range allLinkages {
		for seed := uint64(1); seed <= 5; seed++ {
			r := rng.New(seed * 977)
			pts := randomPoints(20+r.Intn(120), 3, seed)
			assertScanMerges(t, pts, l, fmt.Sprintf("seed %d", seed))
		}
	}
}

// TestNNChainMatchesNaiveExactly keeps the name of the NN-chain-versus-
// scan property on small random point sets (2 ≤ n ≤ 21, 60 sets per
// linkage), now checked against the one loop: identical merges, and
// so identical partitions at every cut.
func TestNNChainMatchesNaiveExactly(t *testing.T) {
	for _, l := range allLinkages {
		f := func(seed uint64) bool {
			pts := randomPoints(int(seed%20)+2, 3, seed^0xabc)
			cm, err := vecmath.CondensedDistanceMatrixCtx(context.Background(), vecmath.Euclidean, pts)
			if err != nil {
				return false
			}
			d, err := NewDendrogramOpts(pts, vecmath.Euclidean, l, Options{})
			return err == nil && sameMerges(d.Merges(), scanMerges(cm, l)) < 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("linkage %v: %v", l, err)
		}
	}
}

// TestNNChainWithTies keeps the name of the tied-square check that held
// NN-chain only to the scan's multiset of heights. On the unit square
// (four equal sides, two equal diagonals) every first merge ties, and
// the one loop must take the scan's tie-break: the same merges in the
// same order for all four linkages, with a valid cut at every k.
func TestNNChainWithTies(t *testing.T) {
	pts := []vecmath.Vector{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	for _, l := range allLinkages {
		d := assertScanMerges(t, pts, l, "square")
		if m := d.Merges()[0]; m.A != 0 || m.B != 1 || m.Distance != 1 {
			t.Fatalf("%v: first merge %+v, want the first tied pair (0,1) at 1", l, m)
		}
		for k := 1; k <= len(pts); k++ {
			a, err := d.CutK(k)
			if err != nil || a.K != k {
				t.Fatalf("%v cut k=%d: %+v, %v", l, k, a, err)
			}
		}
	}
}

// TestMergeUpdateCondensedMatchesReference drives the merge walk
// through arbitrary merges, not only the closest pair, over working
// matrices drawn from {0, 1, 2, 3} so that rows tie. After every
// merge, each active pair holds the reference Lance–Williams pass's
// bits, each inactive slot has size 0, and each active row's cached
// minimum is the first minimum of a fresh scan over the active slots
// after it.
func TestMergeUpdateCondensedMatchesReference(t *testing.T) {
	const n = 23
	for _, l := range allLinkages {
		for seed := uint64(1); seed <= 20; seed++ {
			r := rng.New(seed)
			ref := vecmath.NewCondensedMatrix(n)
			for s := range ref.Data() {
				ref.Data()[s] = float64(r.Intn(4))
			}
			g := newAgglomeration(cloneCondensed(ref))
			active := make([]bool, n)
			size := make([]int, n)
			for i := range active {
				active[i] = true
				size[i] = 1 + r.Intn(5)
				g.size[i] = size[i]
			}
			for live := n; live > 1; live-- {
				lo := r.Intn(n)
				for !active[lo] {
					lo = (lo + 1) % n
				}
				hi := r.Intn(n)
				for !active[hi] || hi == lo {
					hi = (hi + 1) % n
				}
				lo, hi = min(lo, hi), max(lo, hi)
				l.mergeUpdate(ref, active, size, lo, hi)
				size[lo] += size[hi]
				active[hi] = false
				g.merge(l, lo, hi)
				for i := 0; i < n; i++ {
					if !active[i] {
						if g.size[i] != 0 {
							t.Fatalf("%v seed %d: inactive slot %d has size %d", l, seed, i, g.size[i])
						}
						continue
					}
					if g.size[i] != size[i] {
						t.Fatalf("%v seed %d: slot %d size %d, want %d", l, seed, i, g.size[i], size[i])
					}
					nbr, mind := -1, math.Inf(1)
					for j := i + 1; j < n; j++ {
						if !active[j] {
							continue
						}
						v := ref.At(i, j)
						if got := g.w.At(i, j); math.Float64bits(got) != math.Float64bits(v) {
							t.Fatalf("%v seed %d merge (%d,%d): pair (%d,%d) = %v, want %v", l, seed, lo, hi, i, j, got, v)
						}
						if v < mind {
							nbr, mind = j, v
						}
					}
					if g.nbr[i] != nbr || math.Float64bits(g.mind[i]) != math.Float64bits(mind) {
						t.Fatalf("%v seed %d merge (%d,%d): row %d caches (%d, %v), want (%d, %v)",
							l, seed, lo, hi, i, g.nbr[i], g.mind[i], nbr, mind)
					}
				}
			}
		}
	}
}
