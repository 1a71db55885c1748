package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"hmeans/internal/cluster"
	"hmeans/internal/rng"
	"hmeans/internal/simbench"
	"hmeans/internal/vecmath"
)

var allLinkages = []cluster.Linkage{cluster.Complete, cluster.Single, cluster.Average, cluster.Ward}

// pointwiseSweep is the definition Sweep must reproduce bit for bit:
// every k in [kMin, kMax] ∩ [1, n] cut anew with CutK and every
// vector's three means taken anew with HierarchicalMean. It returns
// the ks and, per k, the vectors' means.
func pointwiseSweep(p *Pipeline, vectors [][]float64, kMin, kMax int) ([]int, [][]Means, error) {
	var ks []int
	var out [][]Means
	for k := max(kMin, 1); k <= min(kMax, p.Dendrogram.Len()); k++ {
		cut, err := p.Dendrogram.CutK(k)
		if err != nil {
			return nil, nil, err
		}
		row := make([]Means, len(vectors))
		for v, scores := range vectors {
			for _, kind := range []MeanKind{Geometric, Arithmetic, Harmonic} {
				if row[v][kind], err = HierarchicalMean(kind, scores, Clustering{Labels: cut.Labels, K: cut.K}); err != nil {
					return nil, nil, err
				}
			}
		}
		ks, out = append(ks, k), append(out, row)
	}
	return ks, out, nil
}

// assertSweepMatchesPointwise runs Sweep over [kMin, kMax] and
// compares every k's cut and means with the pointwise definition.
func assertSweepMatchesPointwise(t *testing.T, name string, p *Pipeline, vectors [][]float64, kMin, kMax int) {
	t.Helper()
	wantKs, want, werr := pointwiseSweep(p, vectors, kMin, kMax)
	var ks []int
	err := p.Sweep(vectors, kMin, kMax, func(cut cluster.Assignment, means []Means) error {
		i := len(ks)
		ks = append(ks, cut.K)
		if i >= len(wantKs) || cut.K != wantKs[i] || len(means) != len(vectors) {
			return fmt.Errorf("visited k=%d with %d vectors' means", cut.K, len(means))
		}
		ref, _ := p.Dendrogram.CutK(cut.K)
		for x, l := range ref.Labels {
			if cut.Labels[x] != l {
				return fmt.Errorf("k=%d: labels %v, CutK %v", cut.K, cut.Labels, ref.Labels)
			}
		}
		for v, m := range means {
			for kind, x := range m {
				if math.Float64bits(x) != math.Float64bits(want[i][v][kind]) {
					return fmt.Errorf("k=%d vector %d %v: %v, pointwise %v", cut.K, v, MeanKind(kind), x, want[i][v][kind])
				}
			}
		}
		return nil
	})
	switch {
	case kMin > kMax:
		if !errors.Is(err, cluster.ErrDegenerateCut) {
			t.Fatalf("%s: inverted range gave %v, want ErrDegenerateCut", name, err)
		}
	case werr != nil:
		t.Fatalf("%s: pointwise: %v", name, werr)
	case err != nil:
		t.Fatalf("%s: %v", name, err)
	case len(ks) != len(wantKs):
		t.Fatalf("%s: visited k=%v, pointwise %v", name, ks, wantKs)
	}
}

// sweepInput draws a seeded suite of 2..60 workloads in one of the
// shapes QualitySweep's oracle test uses — hard SOM placements (blobs
// snapped to a small grid, so many workloads share a cell and merges
// tie at height 0), soft placements and unstructured noise — with
// vecs positive score vectors, some of them with repeated scores.
func sweepInput(seed uint64, vecs int) ([]vecmath.Vector, [][]float64) {
	r := rng.New(seed)
	n := 2 + r.Intn(59)
	var pts []vecmath.Vector
	switch seed % 3 {
	case 0:
		pts = simbench.SyntheticSpec{N: n, Dims: 2, Clusters: 1 + r.Intn(8), Seed: seed, Spread: 0.8}.Points()
		cells := 2 + r.Intn(6)
		for _, p := range pts {
			for j := range p {
				p[j] = math.Min(math.Max(math.Round(p[j]*float64(cells)/10), 0), float64(cells-1))
			}
		}
	case 1:
		pts = simbench.SyntheticSpec{N: n, Dims: 2, Clusters: 1 + r.Intn(8), Seed: seed}.Points()
	default:
		pts = make([]vecmath.Vector, n)
		for i := range pts {
			pts[i] = vecmath.Vector{r.NormFloat64() * 5, r.NormFloat64() * 5, r.NormFloat64() * 5}
		}
	}
	vectors := make([][]float64, vecs)
	for v := range vectors {
		vectors[v] = make([]float64, n)
		for i := range vectors[v] {
			vectors[v][i] = math.Exp(3 * r.NormFloat64())
			if i > 0 && r.Intn(4) == 0 {
				vectors[v][i] = vectors[v][i-1]
			}
		}
	}
	return pts, vectors
}

// TestSweepMatchesPointwise pins the one sweep to its definition: on
// seeded suites with tied heights under every linkage, with one to
// three score vectors and random [kMin, kMax] (inverted and
// out-of-range ones included), every k's cut and three means equal
// CutK and HierarchicalMean bit for bit.
func TestSweepMatchesPointwise(t *testing.T) {
	suites := 300
	if testing.Short() || raceEnabled {
		suites = 40
	}
	for seed := uint64(1); seed <= uint64(suites); seed++ {
		r := rng.New(seed ^ 0x5eed)
		pts, vectors := sweepInput(seed, 1+int(seed%3))
		n := len(pts)
		for _, l := range allLinkages {
			d, err := cluster.NewDendrogramOpts(pts, vecmath.Euclidean, l, cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			p := &Pipeline{Dendrogram: d}
			kMin := r.Intn(n+2) - 1
			kMax := kMin + r.Intn(n+3-kMin) - 1
			if r.Intn(4) == 0 {
				kMin, kMax = 1, n
			}
			name := fmt.Sprintf("seed %d n=%d %v %d vectors [%d, %d]", seed, n, l, len(vectors), kMin, kMax)
			assertSweepMatchesPointwise(t, name, p, vectors, kMin, kMax)
		}
	}
}

// FuzzSweep checks the sweep against the pointwise definition on
// adversarial ties. The first byte picks n (2–40), the second the
// linkage and the vector count, the third kMin and the fourth kMax;
// later bytes place the workloads on a 4 × 4 grid and give their
// scores from {0.5, 1, 2, 4}, reused cyclically, so most merge heights
// and many scores tie.
func FuzzSweep(f *testing.F) {
	f.Add([]byte{3, 0, 0, 3, 0x1b})
	f.Add([]byte{11, 5, 1, 11, 0x00, 0xff})
	f.Add([]byte{38, 10, 2, 30, 0xe4, 0x1b, 0x55})
	f.Add([]byte{40, 7, 9, 2, 0x93, 0x0f, 0xc6, 0x01})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 5 {
			return
		}
		n := 2 + int(in[0])%39
		l := allLinkages[int(in[1])%len(allLinkages)]
		vecs := 1 + int(in[1]/4)%3
		kMin, kMax := int(in[2])%(n+2), int(in[3])%(n+2)
		digits := in[4:]
		at := func(i int) byte { return digits[i%len(digits)] }
		pts := make([]vecmath.Vector, n)
		for i := range pts {
			b := at(i)
			pts[i] = vecmath.Vector{float64(b & 3), float64(b >> 2 & 3)}
		}
		vectors := make([][]float64, vecs)
		for v := range vectors {
			vectors[v] = make([]float64, n)
			for i := range vectors[v] {
				vectors[v][i] = math.Ldexp(1, int(at(i+v*n)>>(4+v%2*2)&3)-1)
			}
		}
		d, err := cluster.NewDendrogramOpts(pts, vecmath.Euclidean, l, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("n=%d %v %d vectors [%d, %d]", n, l, vecs, kMin, kMax)
		assertSweepMatchesPointwise(t, name, &Pipeline{Dendrogram: d}, vectors, kMin, kMax)
	})
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

// BenchmarkSweep sweeps two score vectors' means over every k = 1..500
// of a 500-workload dendrogram on suite-500's 12 × 10 grid of hard
// SOM placements. It reports the exact allocations of one sweep
// (exactAllocs), which do not grow with k: a second walk of the cuts
// or an allocation per k raises the count.
func BenchmarkSweep(b *testing.B) {
	const n = 500
	r := rng.New(1)
	pts := simbench.SyntheticSpec{N: n, Dims: 2, Clusters: 40, Seed: 1}.Points()
	for _, p := range pts {
		p[0] = math.Min(math.Max(math.Round(p[0]*1.2), 0), 11)
		p[1] = math.Min(math.Max(math.Round(p[1]), 0), 9)
	}
	d, err := cluster.NewDendrogramOpts(pts, vecmath.Euclidean, cluster.Complete, cluster.Options{})
	if err != nil {
		b.Fatal(err)
	}
	vectors := [][]float64{make([]float64, n), make([]float64, n)}
	for _, v := range vectors {
		for i := range v {
			v[i] = 0.5 + 2*r.Float64()
		}
	}
	p := &Pipeline{Dendrogram: d}
	sweep := func() {
		err := p.Sweep(vectors, 1, n, func(cut cluster.Assignment, means []Means) error {
			sweepSink += means[0][Geometric] / means[1][Geometric]
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.StopTimer()
	b.ReportMetric(exactAllocs(sweep), "allocs/op")
}

var sweepSink float64
