package cluster

import (
	"fmt"
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
// allocs/op regression gate.
func BenchmarkNewDendrogramSuiteScale(b *testing.B) {
	for _, n := range []int{13, 1000, 10000} {
		pts := simbench.SyntheticSpec{N: n, Dims: 3, Clusters: 16, Seed: 1}.Points()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
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
