package som

import (
	"testing"

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

func BenchmarkTrainSequentialSuiteScale(b *testing.B) {
	b.ReportAllocs()
	// 13 workloads × ~160 standardized counters, the paper's scale.
	samples := benchSamples(14, 160)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(Config{Rows: 5, Cols: 4, Seed: 1}, samples); err != nil {
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
		if _, err := Train(cfg, samples); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBMU(b *testing.B) {
	b.ReportAllocs()
	samples := benchSamples(14, 160)
	m, err := Train(Config{Rows: 10, Cols: 10, Steps: 2000, Seed: 1}, samples)
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
	m, err := Train(Config{Rows: 6, Cols: 6, Steps: 2000, Seed: 1}, samples)
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
	m, err := Train(Config{Rows: 10, Cols: 10, Steps: 2000, Seed: 1}, samples)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.UMatrix()
	}
}
