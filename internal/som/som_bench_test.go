package som

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

func benchSamples(n, dim int) []vecmath.Vector {
	samples, _ := twoBlobs(n/2, dim, 6, 99)
	return samples
}

// benchSamplesExact returns exactly n samples (twoBlobs always
// returns an even count).
func benchSamplesExact(n, dim int) []vecmath.Vector {
	samples, _ := twoBlobs((n+1)/2, dim, 6, 99)
	return samples[:n]
}

// BenchmarkTrainSequentialSuiteScale trains a 5×4 map on 14 two-blob
// samples × 160 dimensions, whose variances after the first nearly
// tie: the start's PCA (Gram–Schmidt, a 13 × 13 Jacobi) and then
// 10,000 steps on 13 span coordinates. The bench gate keeps it so
// that a start whose cost grows with the feature count, such as a
// Jacobi on the 160 × 160 covariance, fails the gate.
func BenchmarkTrainSequentialSuiteScale(b *testing.B) {
	b.ReportAllocs()
	samples := benchSamples(14, 160)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainCtx(context.Background(), Config{Rows: 5, Cols: 4, Seed: 1}, samples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainSequentialCaseStudy trains the map the pipeline trains
// for the paper's case study: 13 workloads × 194 standardized SAR
// counters on the 5×4 grid, 10,000 steps from the PCA initialization.
// The samples span 12 dimensions, so the loop runs on span
// coordinates.
func BenchmarkTrainSequentialCaseStudy(b *testing.B) {
	b.ReportAllocs()
	samples := caseStudyCounters(b, 7)
	cfg := Config{Rows: 5, Cols: 4, Steps: 10000, Seed: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainCtx(context.Background(), cfg, samples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainSequentialSuite500 trains the map the pipeline trains
// for suite-500: 500 workloads × 40 standardized counters, full rank,
// so the loop runs in the full dimension on the 12×10 grid for 60,000
// steps. A -benchtime 50ms sample times one iteration, so allocations
// the runtime makes after a collection would show in allocs/op; it
// reports the exact count of one more, untimed training instead
// (exactAllocs).
func BenchmarkTrainSequentialSuite500(b *testing.B) {
	b.ReportAllocs()
	samples := suite500Counters(b, 1)
	rows, cols := GridFor(len(samples))
	cfg := Config{Rows: rows, Cols: cols, Seed: 1}
	train := func() {
		if _, err := TrainCtx(context.Background(), cfg, samples); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		train()
	}
	b.StopTimer()
	b.ReportMetric(exactAllocs(train), "allocs/op")
}

// BenchmarkKernelSchedule times one shared build of a kernel schedule:
// the case study's 5 × 4 grid at 10,000 steps and suite-500's 12 × 10
// at 60,000, the work a replica's first training on a grid does so
// that its later ones make no exp. It reports the exact allocations of
// one more build (exactAllocs).
func BenchmarkKernelSchedule(b *testing.B) {
	for _, g := range []struct{ rows, cols, steps int }{{5, 4, 10000}, {12, 10, 60000}} {
		b.Run(fmt.Sprintf("grid=%dx%d", g.rows, g.cols), func(b *testing.B) {
			p := newKernelPlan(g.rows, g.cols, g.steps)
			build := func() {
				if s, err := buildSchedule(context.Background(), p); err != nil || s == nil {
					b.Fatalf("schedule %v, error %v", s, err)
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				build()
			}
			b.StopTimer()
			b.ReportMetric(exactAllocs(build), "allocs/op")
		})
	}
}

// BenchmarkUpdateKernel times (*Map).update alone, the path training
// takes, on an 8 × 8 grid at step 0 of its schedule: an op moves all
// 64 units, about suite-500's units a step (64.4), toward a sample,
// each with its own h, at the case study's training dim (12 span
// coordinates) and suite-500's (40 counters). Ops alternate between
// two samples, so the weights keep moving.
func BenchmarkUpdateKernel(b *testing.B) {
	for _, dim := range []int{12, 40} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			const side = 8
			r := rng.New(uint64(dim))
			m := newMap(side, side, dim)
			for j := range m.flat {
				m.flat[j] = r.NormFloat64()
			}
			var xs [2]vecmath.Vector
			for i := range xs {
				xs[i] = make(vecmath.Vector, dim)
				for j := range xs[i] {
					xs[i][j] = 3 * r.NormFloat64()
				}
			}
			p := newKernelPlan(side, side, 500*side*side)
			s := newSchedule(p)
			s.block(p, 0, 1)
			kern := s.kern[s.off[0]:s.off[1]]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.update(xs[i&1], 3, 4, s.reach[0], kern, s.slot)
			}
		})
	}
}

// BenchmarkBMUSeeded times training's BMU search alone on suite-500's
// trained map, 12 × 10 units at 40 dims: an op searches each of the
// 500 samples from the unit it won at its last search, as training
// does, so that unit is the first bound and usually the winner. One
// untimed pass sets every sample's first guess. It runs whichever
// search training runs: the AVX2 kernel where the CPU has it.
func BenchmarkBMUSeeded(b *testing.B) {
	samples := suite500Counters(b, 1)
	rows, cols := GridFor(len(samples))
	m, err := TrainCtx(context.Background(), Config{Rows: rows, Cols: cols, Seed: 1}, samples)
	if err != nil {
		b.Fatal(err)
	}
	prev := make([]int, len(samples))
	search := func() {
		for i, x := range samples {
			prev[i], _ = m.bmuSeeded(x, prev[i])
		}
	}
	search()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search()
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

func BenchmarkBMU(b *testing.B) {
	b.ReportAllocs()
	samples := benchSamples(14, 160)
	m, err := TrainCtx(context.Background(), Config{Rows: 10, Cols: 10, Steps: 2000, Seed: 1}, samples)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BMU(samples[i%len(samples)])
	}
}

func BenchmarkQuantizationError(b *testing.B) {
	b.ReportAllocs()
	samples := benchSamples(14, 160)
	m, err := TrainCtx(context.Background(), Config{Rows: 6, Cols: 6, Steps: 2000, Seed: 1}, samples)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.QuantizationError(samples)
	}
}

func BenchmarkUMatrix(b *testing.B) {
	b.ReportAllocs()
	samples := benchSamples(14, 160)
	m, err := TrainCtx(context.Background(), Config{Rows: 10, Cols: 10, Steps: 2000, Seed: 1}, samples)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.UMatrix()
	}
}
