package cluster

import (
	"testing"

	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

func TestEffectiveAlgorithm(t *testing.T) {
	for _, tc := range []struct {
		opt  Options
		n    int
		want Algorithm
	}{
		{Options{}, autoThreshold, AlgoScan},
		{Options{}, autoThreshold + 1, AlgoNNChain},
		{Options{Algorithm: AlgoScan}, 100000, AlgoScan},
		{Options{Algorithm: AlgoNNChain}, 2, AlgoNNChain},
	} {
		got, err := tc.opt.effectiveAlgorithm(tc.n)
		if err != nil || got != tc.want {
			t.Fatalf("effectiveAlgorithm(%+v, n=%d) = %v, %v; want %v", tc.opt, tc.n, got, err, tc.want)
		}
	}
	if _, err := (Options{Algorithm: Algorithm(42)}).effectiveAlgorithm(5); err == nil {
		t.Fatal("effectiveAlgorithm accepted an out-of-range Algorithm")
	}
	if _, err := NewDendrogramOpts(fourPoints(), vecmath.Euclidean, Complete, Options{Algorithm: Algorithm(42)}); err == nil {
		t.Fatal("NewDendrogramOpts accepted an out-of-range Algorithm")
	}
}

// TestScanChainMergeIdentity is the tentpole oracle: for all four
// linkages and seeds 1–5 at random sizes, forcing AlgoScan and
// AlgoNNChain through the same Options entry point must yield
// identical merge sequences. Gaussian points make tied merge heights
// measure-zero, so cluster ids and sizes must match exactly. Heights
// are bit-identical for Complete and Single (min/max pick one of the
// original pair distances, immune to evaluation order); Average and
// Ward evaluate the same weighted Lance–Williams recursion in a
// different nesting order — equal in exact arithmetic, so the float
// results may differ by reassociation rounding only, bounded here at
// 1e-9 relative (matching the package's NN-chain oracle tolerance).
func TestScanChainMergeIdentity(t *testing.T) {
	for _, l := range []Linkage{Complete, Single, Average, Ward} {
		for seed := uint64(1); seed <= 5; seed++ {
			r := rng.New(seed * 977)
			n := 20 + r.Intn(120)
			pts := randomPoints(n, 3, seed)
			scan, err := NewDendrogramOpts(pts, vecmath.Euclidean, l, Options{Algorithm: AlgoScan})
			if err != nil {
				t.Fatalf("%v seed %d: scan: %v", l, seed, err)
			}
			chain, err := NewDendrogramOpts(pts, vecmath.Euclidean, l, Options{Algorithm: AlgoNNChain})
			if err != nil {
				t.Fatalf("%v seed %d: nnchain: %v", l, seed, err)
			}
			if len(scan.Merges()) != len(chain.Merges()) {
				t.Fatalf("%v seed %d: %d vs %d merges", l, seed, len(scan.Merges()), len(chain.Merges()))
			}
			exactHeights := l == Complete || l == Single
			for i, sm := range scan.Merges() {
				cm := chain.Merges()[i]
				if sm.A != cm.A || sm.B != cm.B || sm.Size != cm.Size {
					t.Fatalf("%v seed %d n=%d: merge %d scan=%+v chain=%+v", l, seed, n, i, sm, cm)
				}
				if exactHeights {
					if sm.Distance != cm.Distance {
						t.Fatalf("%v seed %d n=%d: merge %d height %v != %v (must be bit-identical)",
							l, seed, n, i, cm.Distance, sm.Distance)
					}
				} else if diff := cm.Distance - sm.Distance; diff > 1e-9*sm.Distance || diff < -1e-9*sm.Distance {
					t.Fatalf("%v seed %d n=%d: merge %d height %v, want %v within 1e-9 rel",
						l, seed, n, i, cm.Distance, sm.Distance)
				}
			}
		}
	}
}

// TestAutoSwitchesToChain pins the auto policy at the boundary: above
// the threshold the auto result must equal the forced NN-chain result,
// and at or below it the forced scan result.
func TestAutoSwitchesToChain(t *testing.T) {
	pts := randomPoints(autoThreshold+10, 3, 7)
	auto, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{Algorithm: AlgoNNChain})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range auto.Merges() {
		if m != chain.Merges()[i] {
			t.Fatalf("auto above threshold diverged from nnchain at merge %d", i)
		}
	}
	small := randomPoints(40, 3, 7)
	autoSmall, err := NewDendrogramOpts(small, vecmath.Euclidean, Complete, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scanSmall, err := NewDendrogramOpts(small, vecmath.Euclidean, Complete, Options{Algorithm: AlgoScan})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range autoSmall.Merges() {
		if m != scanSmall.Merges()[i] {
			t.Fatalf("auto below threshold diverged from scan at merge %d", i)
		}
	}
}

// TestMergeUpdateCondensedMatchesReference proves the
// incremental-address Lance–Williams pass bit-identical to the
// retained At/Set reference on random working matrices, for all four
// linkages, with the merge roles in both slot orders (a < b and
// a > b) and inactive slots scattered through the range.
func TestMergeUpdateCondensedMatchesReference(t *testing.T) {
	const n = 23
	for _, l := range []Linkage{Complete, Single, Average, Ward} {
		for seed := uint64(1); seed <= 5; seed++ {
			r := rng.New(seed)
			base := vecmath.NewCondensedMatrix(n)
			for s := range base.Data() {
				base.Data()[s] = r.Float64() * 10
			}
			active := make([]bool, n)
			size := make([]int, n)
			for i := range active {
				active[i] = r.Float64() < 0.8
				size[i] = 1 + r.Intn(5)
			}
			for _, ab := range [][2]int{{3, 17}, {17, 3}, {0, n - 1}, {11, 12}} {
				a, b := ab[0], ab[1]
				active[a], active[b] = true, true
				ref := cloneCondensed(base)
				l.mergeUpdate(ref, active, size, a, b)
				fast := cloneCondensed(base)
				mergeUpdateCondensed(l, fast, active, size, a, b)
				for s, v := range fast.Data() {
					if v != ref.Data()[s] {
						t.Fatalf("%v seed %d merge (%d,%d): slot %d = %v, want %v",
							l, seed, a, b, s, v, ref.Data()[s])
					}
				}
			}
		}
	}
}
