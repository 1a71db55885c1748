package cluster

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"hmeans/internal/rng"
	"hmeans/internal/simbench"
	"hmeans/internal/vecmath"
)

// pointwiseQualitySweep is the definition QualitySweep must reproduce
// bit for bit: every k cut anew with CutK and scored anew with
// Silhouette, DaviesBouldin and DistanceForK.
func pointwiseQualitySweep(d *Dendrogram, points []vecmath.Vector, kMin, kMax int) ([]KQuality, error) {
	if len(points) != d.n {
		return nil, errors.New("cluster: points do not match dendrogram")
	}
	dm := vecmath.DistanceMatrix(vecmath.Euclidean, points)
	var out []KQuality
	for k := kMin; k <= kMax && k <= d.n; k++ {
		if k < 2 {
			continue
		}
		a, err := d.CutK(k)
		if err != nil {
			return nil, err
		}
		sil, err := Silhouette(dm, a)
		if err != nil {
			return nil, err
		}
		db, err := DaviesBouldin(points, a)
		if err != nil {
			return nil, err
		}
		q := KQuality{K: k, Silhouette: sil, DaviesBouldin: db}
		if _, lo, hi, ok := d.DistanceForK(k); ok {
			if math.IsInf(hi, 1) {
				q.MergeGap = math.Inf(1)
			} else {
				q.MergeGap = hi - lo
			}
		}
		out = append(out, q)
	}
	if len(out) == 0 {
		return nil, &CutError{N: d.n, Reason: fmt.Sprintf("no valid cluster count in quality sweep [%d, %d]", kMin, kMax)}
	}
	return out, nil
}

// sweepSuite draws one seeded point set of 2..60 points in one of the
// shapes the pipeline hands QualitySweep: hard SOM placements (blobs
// snapped to a small integer grid, so many points share a cell and
// merges tie at height 0), soft placements (unsnapped blobs) and
// unstructured noise.
func sweepSuite(seed uint64) []vecmath.Vector {
	r := rng.New(seed)
	n := 2 + r.Intn(59)
	switch seed % 3 {
	case 0:
		pts := simbench.SyntheticSpec{N: n, Dims: 2, Clusters: 1 + r.Intn(8), Seed: seed, Spread: 0.8}.Points()
		cells := 2 + r.Intn(6)
		for _, p := range pts {
			for j := range p {
				p[j] = math.Min(math.Max(math.Round(p[j]*float64(cells)/10), 0), float64(cells-1))
			}
		}
		return pts
	case 1:
		return simbench.SyntheticSpec{N: n, Dims: 2, Clusters: 1 + r.Intn(8), Seed: seed}.Points()
	default:
		return randomPoints(n, 1+r.Intn(3), seed)
	}
}

// TestQualitySweepMatchesPointwise pins the walk's exactness: on
// seeded suites under every linkage, over random
// [kMin, kMax] ranges, every KQuality field has the pointwise
// definition's bits, and an empty range fails the same way.
func TestQualitySweepMatchesPointwise(t *testing.T) {
	suites := 300
	if testing.Short() || raceEnabled {
		suites = 40
	}
	for seed := uint64(1); seed <= uint64(suites); seed++ {
		pts := sweepSuite(seed)
		n := len(pts)
		r := rng.New(seed ^ 0x5eed)
		for _, l := range allLinkages {
			d, err := NewDendrogramOpts(pts, vecmath.Euclidean, l, Options{})
			if err != nil {
				t.Fatal(err)
			}
			kMin := r.Intn(n + 2)
			kMax := kMin + r.Intn(n+2-kMin)
			if r.Intn(4) == 0 {
				kMin, kMax = 2, n
			}
			name := fmt.Sprintf("seed %d n=%d %v [%d, %d]", seed, n, l, kMin, kMax)
			want, werr := pointwiseQualitySweep(d, pts, kMin, kMax)
			got, gerr := d.QualitySweep(pts, kMin, kMax)
			if (werr != nil) != (gerr != nil) || (werr != nil && werr.Error() != gerr.Error()) {
				t.Fatalf("%s: error %v, pointwise %v", name, gerr, werr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d cuts, pointwise %d", name, len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if g.K != w.K || !sameBits(g.Silhouette, w.Silhouette) ||
					!sameBits(g.DaviesBouldin, w.DaviesBouldin) || !sameBits(g.MergeGap, w.MergeGap) {
					t.Fatalf("%s: k=%d got %+v, pointwise %+v", name, w.K, g, w)
				}
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestEachCutMatchesCutK checks the walk's labels against the
// union-find oracle at every k, canonical order included, and that
// the walk reuses one label slice.
func TestEachCutMatchesCutK(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		pts := sweepSuite(seed)
		n := len(pts)
		r := rng.New(seed)
		for _, l := range allLinkages {
			d, err := NewDendrogramOpts(pts, vecmath.Euclidean, l, Options{})
			if err != nil {
				t.Fatal(err)
			}
			kMin := r.Intn(n + 1)
			kMax := kMin + r.Intn(n+2-kMin)
			assertEachCutMatchesCutK(t, d, kMin, kMax)
		}
	}
}

// TestCutKMatchesUnionFind checks CutK, which starts a walk at k,
// against the union-find oracle at every k of seeded suites with tied
// heights under every linkage, and CutDistance at every merge height.
func TestCutKMatchesUnionFind(t *testing.T) {
	suites := 300
	if testing.Short() || raceEnabled {
		suites = 40
	}
	for seed := uint64(1); seed <= uint64(suites); seed++ {
		pts := sweepSuite(seed)
		n := len(pts)
		for _, l := range allLinkages {
			d, err := NewDendrogramOpts(pts, vecmath.Euclidean, l, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= n; k++ {
				got, err := d.CutK(k)
				if err != nil {
					t.Fatal(err)
				}
				if want := d.assignment(n - k); got.K != k || !slices.Equal(got.Labels, want.Labels) {
					t.Fatalf("seed %d n=%d %v: CutK(%d) = %v, union-find %v", seed, n, l, k, got, want)
				}
			}
			for _, m := range d.Merges() {
				if got, want := d.CutDistance(m.Distance), d.assignment(mergesAtOrBelow(d, m.Distance)); !slices.Equal(got.Labels, want.Labels) {
					t.Fatalf("seed %d n=%d %v: CutDistance(%v) = %v, union-find %v", seed, n, l, m.Distance, got, want)
				}
			}
		}
	}
}

// mergesAtOrBelow counts the merges CutDistance(maxDist) applies.
func mergesAtOrBelow(d *Dendrogram, maxDist float64) int {
	applied := 0
	for _, m := range d.Merges() {
		if m.Distance <= maxDist {
			applied++
		}
	}
	return applied
}

// assertEachCutMatchesCutK walks [kMin, kMax] and compares every cut
// with CutK's and with the union-find oracle's.
func assertEachCutMatchesCutK(t *testing.T, d *Dendrogram, kMin, kMax int) {
	t.Helper()
	next := max(kMin, 1)
	var first *int
	err := d.EachCut(kMin, kMax, func(a Assignment) error {
		if a.K != next {
			return fmt.Errorf("visited k=%d, want %d", a.K, next)
		}
		next++
		want := d.assignment(d.Len() - a.K)
		if want.K != a.K || !slices.Equal(a.Labels, want.Labels) {
			return fmt.Errorf("k=%d: labels %v, union-find %v (k=%d)", a.K, a.Labels, want.Labels, want.K)
		}
		cut, err := d.CutK(a.K)
		if err != nil {
			return err
		}
		if !slices.Equal(cut.Labels, a.Labels) {
			return fmt.Errorf("k=%d: labels %v, CutK %v", a.K, a.Labels, cut.Labels)
		}
		if first == nil {
			first = &a.Labels[0]
		} else if first != &a.Labels[0] {
			return fmt.Errorf("k=%d: the walk allocated a new label slice", a.K)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("EachCut(%d, %d) on n=%d: %v", kMin, kMax, d.Len(), err)
	}
	if want := min(kMax, d.Len()) + 1; next != want && kMin <= d.Len() {
		t.Fatalf("EachCut(%d, %d) on n=%d stopped before k=%d", kMin, kMax, d.Len(), want-1)
	}
}

// TestQualitySweepRescansNearest covers a split whose children are
// both farther, after rounding, than the cluster they split from, with
// a third cluster in between. Point i = (1, 3) is √10 from every point
// of three SOM cells: X, 7 points at (4, 4), and C, 5 points at (0, 0)
// and 6 at (2, 0). Summed in order and divided by the count, eleven √10s
// round below seven, and seven below five or six. So i's nearest
// cluster is C until C splits into its cells; then it is X, which
// only a rescan finds.
func TestQualitySweepRescansNearest(t *testing.T) {
	pts := []vecmath.Vector{{1, 3}, {1, 4}}
	for _, cell := range []struct {
		at vecmath.Vector
		m  int
	}{{vecmath.Vector{4, 4}, 7}, {vecmath.Vector{0, 0}, 5}, {vecmath.Vector{2, 0}, 6}} {
		for i := 0; i < cell.m; i++ {
			pts = append(pts, cell.at.Clone())
		}
	}
	seqMean := func(m int) float64 {
		s := 0.0
		for i := 0; i < m; i++ {
			s += math.Sqrt(10)
		}
		return s / float64(m)
	}
	if !(seqMean(11) < seqMean(7) && seqMean(7) < seqMean(5) && seqMean(7) < seqMean(6)) {
		t.Fatal("the rounded means no longer order C < X < C's cells; the case does not cover the rescan")
	}
	// The silhouette sum can round a one-ulp difference in i's term
	// away, so the walk's nearest means are compared directly.
	dm := vecmath.DistanceMatrix(vecmath.Euclidean, pts)
	for _, l := range allLinkages {
		d, err := NewDendrogramOpts(pts, vecmath.Euclidean, l, Options{})
		if err != nil {
			t.Fatal(err)
		}
		q, err := newQualityWalk(d, pts, 2)
		if err != nil {
			t.Fatal(err)
		}
		for {
			a := Assignment{Labels: q.w.labels, K: q.w.k}
			sizes := a.Sizes()
			for i, got := range q.near {
				if sizes[a.Labels[i]] == 1 {
					continue
				}
				if want := pointwiseNear(dm, a, sizes, i); !sameBits(got, want) {
					t.Fatalf("%v k=%d: point %d's nearest mean %v, pointwise %v", l, a.K, i, got, want)
				}
			}
			if q.w.k == len(pts) {
				break
			}
			q.split()
		}
	}
}

// pointwiseNear is Silhouette's b for point i: the smallest mean
// distance to another cluster, each sum added in ascending order.
func pointwiseNear(dm *vecmath.Matrix, a Assignment, sizes []int, i int) float64 {
	sums := make([]float64, a.K)
	for j, l := range a.Labels {
		if j != i {
			sums[l] += dm.At(i, j)
		}
	}
	best := math.Inf(1)
	for c, s := range sums {
		if c != a.Labels[i] {
			best = math.Min(best, s/float64(sizes[c]))
		}
	}
	return best
}

// TestQualitySweepRejectsNaN: a NaN distance would make the nearest
// cluster depend on label order, and no dendrogram is built from one.
func TestQualitySweepRejectsNaN(t *testing.T) {
	pts := []vecmath.Vector{{0, 0}, {0, 1}, {5, 5}, {5, 6}}
	d, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []vecmath.Vector{{0, 0}, {0, math.NaN()}, {5, 5}, {5, 6}}
	if _, err := d.QualitySweep(bad, 2, 4); !errors.Is(err, ErrDegenerateCut) {
		t.Fatalf("QualitySweep with a NaN point: error %v, want ErrDegenerateCut", err)
	}
}

// BenchmarkQualitySweep runs the sweep in suite-500's shape: 500
// points placed on about 40 cells of a SOM grid, every k from 2 to n.
func BenchmarkQualitySweep(b *testing.B) {
	b.ReportAllocs()
	pts := simbench.SyntheticSpec{N: 500, Dims: 2, Clusters: 40, Seed: 1}.Points()
	for _, p := range pts {
		for j := range p {
			p[j] = math.Round(p[j])
		}
	}
	d, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.QualitySweep(pts, 2, len(pts)); err != nil {
			b.Fatal(err)
		}
	}
}
