package cluster

import (
	"fmt"
	"os"
	"testing"

	"hmeans/internal/par"
	"hmeans/internal/simbench"
	"hmeans/internal/vecmath"
)

func BenchmarkDendrogramSuiteScale(b *testing.B) {
	b.ReportAllocs()
	pts := randomPoints(13, 2, 1)
	for _, l := range []Linkage{Complete, Single, Average, Ward} {
		l := l
		b.Run(l.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewDendrogramOpts(pts, vecmath.Euclidean, l, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDendrogramLarge(b *testing.B) {
	b.ReportAllocs()
	// 200 points: the O(n³) naive agglomeration at a size well past
	// any benchmark suite, to keep the scaling behaviour visible.
	pts := randomPoints(200, 4, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDendrogramSerialVsParallel compares one worker against the
// full machine at the paper's suite size and two production-scale
// sizes. Both arms produce bit-identical merge sequences. Workers
// shard only the condensed distance build and the validation pass;
// the agglomeration (scan at n ≤ 128, NN-chain above) is serial in
// both arms.
func BenchmarkDendrogramSerialVsParallel(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{13, 200, 1000} {
		pts := randomPoints(n, 2, uint64(n))
		for _, arm := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", par.Auto()}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, arm.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{Workers: arm.workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkCutK(b *testing.B) {
	b.ReportAllocs()
	pts := randomPoints(100, 3, 3)
	d, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.CutK(i%99 + 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSilhouette(b *testing.B) {
	b.ReportAllocs()
	pts := randomPoints(100, 3, 4)
	dm := vecmath.DistanceMatrix(vecmath.Euclidean, pts)
	d, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
	if err != nil {
		b.Fatal(err)
	}
	a, err := d.CutK(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Silhouette(dm, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeansSuiteScale(b *testing.B) {
	b.ReportAllocs()
	pts := randomPoints(13, 2, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(pts, 6, uint64(i), 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewDendrogramSuiteScale measures the full condensed-native
// pipeline (distance build + agglomeration) from the paper's
// 13-workload suite up through production sizes; it is part of the
// allocs/op regression gate. The n=1000 pair keeps the scan-vs-chain
// speed gap continuously measured in the committed baseline; at
// n=10000 only the NN-chain runs in the gate (the scan there takes
// minutes — its one-time measurement lives in EXPERIMENTS.md and the
// env-gated BenchmarkNewDendrogramScanLarge below).
func BenchmarkNewDendrogramSuiteScale(b *testing.B) {
	for _, arm := range []struct {
		name string
		n    int
		algo Algorithm
	}{
		{"n=13", 13, AlgoAuto},
		{"n=1000/scan", 1000, AlgoScan},
		{"n=1000/nnchain", 1000, AlgoNNChain},
		{"n=10000/nnchain", 10000, AlgoNNChain},
	} {
		pts := simbench.SyntheticSpec{N: arm.n, Dims: 3, Clusters: 16, Seed: 1}.Points()
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{Algorithm: arm.algo}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchLargeEnv is the opt-in switch for the long benchmark below: it
// runs only under `make bench-large`, never in CI or `make bench`
// (which runs every non-gated benchmark at -benchtime=1x).
const benchLargeEnv = "HMEANS_BENCH_LARGE"

// BenchmarkNewDendrogramScanLarge is the one-time oracle measurement
// behind the EXPERIMENTS.md scan-vs-chain table: the retained
// reference scan at n=10000, minutes per op.
func BenchmarkNewDendrogramScanLarge(b *testing.B) {
	if os.Getenv(benchLargeEnv) == "" {
		b.Skipf("set %s=1 (make bench-large) to run the n=10000 scan oracle", benchLargeEnv)
	}
	b.ReportAllocs()
	pts := simbench.SyntheticSpec{N: 10000, Dims: 3, Clusters: 16, Seed: 1}.Points()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{Algorithm: AlgoScan}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewDendrogramLarge is the gate's production-scale arm:
// 200 points, where the condensed layout's halved working set and
// single-allocation working matrix dominate.
func BenchmarkNewDendrogramLarge(b *testing.B) {
	b.ReportAllocs()
	pts := randomPoints(200, 4, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
