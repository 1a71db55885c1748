package cluster

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"hmeans/internal/vecmath"
)

func TestNNChainMatchesNaiveExactly(t *testing.T) {
	// Random points in general position: merge heights are distinct,
	// so the two algorithms must produce identical trees.
	for _, l := range []Linkage{Complete, Single, Average, Ward} {
		l := l
		f := func(seed uint64) bool {
			n := int(seed%20) + 2
			pts := randomPoints(n, 3, seed^0xabc)
			naive, err1 := NewDendrogramOpts(pts, vecmath.Euclidean, l, Options{Algorithm: AlgoScan})
			fast, err2 := NewDendrogramOpts(pts, vecmath.Euclidean, l, Options{Algorithm: AlgoNNChain})
			if err1 != nil || err2 != nil {
				return false
			}
			// Same merge heights in order.
			hn, hf := naive.MergeDistances(), fast.MergeDistances()
			for i := range hn {
				if math.Abs(hn[i]-hf[i]) > 1e-9 {
					return false
				}
			}
			// Same partition at every cut.
			for k := 1; k <= n; k++ {
				an, err := naive.CutK(k)
				if err != nil {
					return false
				}
				af, err := fast.CutK(k)
				if err != nil {
					return false
				}
				r, err := AgreementRate(an, af)
				if err != nil || r != 1 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("linkage %v: %v", l, err)
		}
	}
}

func TestNNChainKnownInstance(t *testing.T) {
	d, err := NewDendrogramOpts(fourPoints(), vecmath.Euclidean, Complete, Options{Algorithm: AlgoNNChain})
	if err != nil {
		t.Fatal(err)
	}
	m := d.Merges()
	if m[0].A != 0 || m[0].B != 1 || m[0].Distance != 1 {
		t.Fatalf("first merge %+v", m[0])
	}
	if m[1].A != 2 || m[1].B != 3 || m[1].Distance != 2 {
		t.Fatalf("second merge %+v", m[1])
	}
	if m[2].Distance != 12 {
		t.Fatalf("final merge %+v", m[2])
	}
}

func TestNNChainErrors(t *testing.T) {
	if _, err := NewDendrogramOpts(nil, vecmath.Euclidean, Complete, Options{Algorithm: AlgoNNChain}); !errors.Is(err, ErrNoPoints) {
		t.Error("empty input accepted")
	}
	if _, err := fromCondensed(condensedOf(3, 1, -1, 2), Complete, Options{Algorithm: AlgoNNChain}); err == nil {
		t.Error("negative distance accepted")
	}
}

func TestNNChainSinglePoint(t *testing.T) {
	d, err := NewDendrogramOpts([]vecmath.Vector{{1, 2}}, vecmath.Euclidean, Average, Options{Algorithm: AlgoNNChain})
	if err != nil || d.Len() != 1 || len(d.Merges()) != 0 {
		t.Fatalf("single point: %v, %v", d, err)
	}
}

func TestNNChainMergesSorted(t *testing.T) {
	f := func(seed uint64) bool {
		pts := randomPoints(int(seed%15)+3, 2, seed^0x1234)
		d, err := NewDendrogramOpts(pts, vecmath.Euclidean, Average, Options{Algorithm: AlgoNNChain})
		if err != nil {
			return false
		}
		hs := d.MergeDistances()
		return sort.Float64sAreSorted(hs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestNNChainWithTies(t *testing.T) {
	// A perfect square: four equal sides and equal diagonals create
	// massive ties. The tree may differ from the naive one in
	// labelling, but every cut must be a valid partition and the
	// height multiset must match.
	pts := []vecmath.Vector{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	naive, err := NewDendrogramOpts(pts, vecmath.Euclidean, Single, Options{Algorithm: AlgoScan})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewDendrogramOpts(pts, vecmath.Euclidean, Single, Options{Algorithm: AlgoNNChain})
	if err != nil {
		t.Fatal(err)
	}
	hn, hf := naive.MergeDistances(), fast.MergeDistances()
	sort.Float64s(hn)
	sort.Float64s(hf)
	for i := range hn {
		if math.Abs(hn[i]-hf[i]) > 1e-12 {
			t.Fatalf("height multiset differs: %v vs %v", hn, hf)
		}
	}
	for k := 1; k <= 4; k++ {
		a, err := fast.CutK(k)
		if err != nil || a.K != k {
			t.Fatalf("cut k=%d: %+v, %v", k, a, err)
		}
	}
}

func BenchmarkNNChainVsNaive(b *testing.B) {
	b.ReportAllocs()
	pts := randomPoints(200, 4, 2)
	b.Run("naive-200", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{Algorithm: AlgoScan}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nnchain-200", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{Algorithm: AlgoNNChain}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
