package cluster

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

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
// 13-workload suite up through large suites; it is part of the
// allocs/op regression gate. At n = 1000 and 10000 a -benchtime 50ms
// sample times one to three builds, so allocations the runtime makes
// after a collection would show in allocs/op; the arms report the
// exact count of one more, untimed build instead (exactAllocs).
func BenchmarkNewDendrogramSuiteScale(b *testing.B) {
	for _, n := range []int{13, 1000, 10000} {
		pts := simbench.SyntheticSpec{N: n, Dims: 3, Clusters: 16, Seed: 1}.Points()
		build := func() {
			if _, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				build()
			}
			b.StopTimer()
			b.ReportMetric(exactAllocs(build), "allocs/op")
		})
	}
}

// exactAllocs returns the heap allocations of one call of f, counted
// with the collector off so that none the runtime makes after a
// collection is charged to f: the count repeats exactly from run to
// run.
func exactAllocs(f func()) float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
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
