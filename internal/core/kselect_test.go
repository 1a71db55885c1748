package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"hmeans/internal/cluster"
	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

func TestRecommendKPipeline(t *testing.T) {
	p, err := DetectClusters(syntheticSuite(t), pipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	scoresA := []float64{4, 4.1, 3.9, 1.5, 1.4, 0.8}
	scoresB := []float64{2, 2.1, 2.0, 1.5, 1.6, 1.2}
	rec, err := p.RecommendK(Geometric, scoresA, scoresB, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rec.K < 2 || rec.K > 6 {
		t.Fatalf("recommended k = %d out of range", rec.K)
	}
	if len(rec.Quality) == 0 {
		t.Fatal("no quality diagnostics")
	}
	if len(rec.RatioDamping) == 0 {
		t.Fatal("no damping diagnostics")
	}
	for k, d := range rec.RatioDamping {
		if d < 0 {
			t.Fatalf("negative damping at k=%d: %v", k, d)
		}
	}
	// The synthetic suite has 3 intrinsic clusters; the
	// recommendation should find a geometrically sound cut (the
	// recommended k's silhouette must be within tolerance of the
	// best).
	bestSil := math.Inf(-1)
	var recSil float64
	for _, q := range rec.Quality {
		if q.Silhouette > bestSil {
			bestSil = q.Silhouette
		}
		if q.K == rec.K {
			recSil = q.Silhouette
		}
	}
	if recSil < bestSil-0.05-1e-12 {
		t.Fatalf("recommended k=%d has silhouette %v, best is %v", rec.K, recSil, bestSil)
	}
}

func TestRecommendKErrors(t *testing.T) {
	p, err := DetectClusters(syntheticSuite(t), pipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	scores := []float64{4, 4.1, 3.9, 1.5, 1.4, 0.8}
	if _, err := p.RecommendK(Geometric, scores, scores, 9, 12); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := p.RecommendK(Geometric, scores[:2], scores, 2, 4); err == nil {
		t.Error("short score vector accepted")
	}
}

func TestSelectSubsetMedoids(t *testing.T) {
	positions := []vecmath.Vector{
		{0, 0}, {1, 0}, {0.4, 0}, // cluster 0: medoid is index 2
		{10, 10}, // cluster 1: singleton
	}
	c, err := NewClustering([]int{0, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := SelectSubset(positions, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Representatives) != 2 {
		t.Fatalf("representatives = %v", s.Representatives)
	}
	if s.Representatives[0] != 2 {
		t.Fatalf("cluster 0 medoid = %d, want 2", s.Representatives[0])
	}
	if s.Representatives[1] != 3 {
		t.Fatalf("cluster 1 representative = %d, want 3", s.Representatives[1])
	}
}

func TestSelectSubsetErrors(t *testing.T) {
	c, _ := NewClustering([]int{0, 1})
	if _, err := SelectSubset([]vecmath.Vector{{1}}, c); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := SelectSubset(nil, Clustering{}); err == nil {
		t.Error("empty suite accepted")
	}
	bad := Clustering{Labels: []int{0, 7}, K: 2}
	if _, err := SelectSubset([]vecmath.Vector{{1}, {2}}, bad); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestSubsetScores(t *testing.T) {
	positions := []vecmath.Vector{{0}, {0.1}, {5}}
	c, _ := NewClustering([]int{0, 0, 1})
	s, err := SelectSubset(positions, c)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := s.Scores([]float64{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 2 || scores[1] != 8 {
		t.Fatalf("subset scores = %v", scores)
	}
	if _, err := s.Scores([]float64{1}); err == nil {
		t.Error("short score vector accepted")
	}
}

func TestSubsetErrorZeroWhenClustersUniform(t *testing.T) {
	// When each cluster's members share one score, the medoid's score
	// is the cluster's inner mean — subsetting is exact.
	positions := []vecmath.Vector{{0}, {0.1}, {5}, {5.1}}
	c, _ := NewClustering([]int{0, 0, 1, 1})
	s, err := SelectSubset(positions, c)
	if err != nil {
		t.Fatal(err)
	}
	full := []float64{3, 3, 7, 7}
	e, err := SubsetError(Geometric, full, s)
	if err != nil {
		t.Fatal(err)
	}
	if e > 1e-12 {
		t.Fatalf("subset error = %v, want 0", e)
	}
}

func TestSubsetErrorBoundedOnRealisticSpread(t *testing.T) {
	positions := []vecmath.Vector{{0}, {0.1}, {0.2}, {5}, {9}}
	c, _ := NewClustering([]int{0, 0, 0, 1, 2})
	s, err := SelectSubset(positions, c)
	if err != nil {
		t.Fatal(err)
	}
	full := []float64{2.0, 2.2, 1.9, 5, 0.7}
	e, err := SubsetError(Geometric, full, s)
	if err != nil {
		t.Fatal(err)
	}
	// The within-cluster spread is ~10%, so the one-per-cluster
	// approximation must stay within a few percent.
	if e > 0.1 {
		t.Fatalf("subset error = %v, suspiciously large", e)
	}
}

// referenceRecommendK is RecommendK's definition: the quality sweep,
// then the A/B ratio at every k in [kMin-1, kMax+1] from ScoreAtK,
// one fresh cut and scorer per call, and the same ranking.
func referenceRecommendK(p *Pipeline, kind MeanKind, scoresA, scoresB []float64, kMin, kMax int) (KRecommendation, error) {
	var rec KRecommendation
	kMin = max(kMin, 2)
	n := p.Dendrogram.Len()
	kMax = min(kMax, n)
	quality, err := p.Dendrogram.QualitySweep(p.Positions, kMin, kMax)
	if err != nil {
		return rec, err
	}
	rec.Quality = quality
	lo, hi := max(kMin-1, 1), min(kMax+1, n)
	ratio := make(map[int]float64)
	for k := lo; k <= hi; k++ {
		a, err := p.ScoreAtK(kind, scoresA, k)
		if err != nil {
			return rec, err
		}
		b, err := p.ScoreAtK(kind, scoresB, k)
		if err != nil {
			return rec, err
		}
		ratio[k] = a / b
	}
	rec.RatioDamping = make(map[int]float64)
	for k := kMin; k <= kMax; k++ {
		var sum float64
		var terms int
		if r, ok := ratio[k-1]; ok {
			sum += math.Abs(ratio[k] - r)
			terms++
		}
		if r, ok := ratio[k+1]; ok {
			sum += math.Abs(ratio[k] - r)
			terms++
		}
		if terms > 0 {
			rec.RatioDamping[k] = sum / float64(terms)
		}
	}
	const tol = 0.05
	bestSil := math.Inf(-1)
	for _, q := range quality {
		if q.Silhouette > bestSil {
			bestSil = q.Silhouette
		}
	}
	bestK, bestDamp := 0, math.Inf(1)
	for _, q := range quality {
		if q.Silhouette < bestSil-tol {
			continue
		}
		d, ok := rec.RatioDamping[q.K]
		if !ok {
			d = math.Inf(1)
		}
		if d < bestDamp {
			bestK, bestDamp = q.K, d
		}
	}
	if bestK == 0 {
		bestK = quality[0].K
	}
	rec.K = bestK
	return rec, nil
}

// TestRecommendKMatchesScoreAtK pins the walk-based ratio loop to its
// definition: on SOM-grid suites with tied positions, under every
// linkage and all three mean families, the recommended k and every
// ratio damping equal the ScoreAtK reference bit for bit.
func TestRecommendKMatchesScoreAtK(t *testing.T) {
	linkages := []cluster.Linkage{cluster.Complete, cluster.Single, cluster.Average, cluster.Ward}
	for seed := uint64(1); seed <= 24; seed++ {
		r := rng.New(seed)
		n := 3 + r.Intn(70)
		cells := 2 + r.Intn(7)
		p := &Pipeline{Positions: make([]vecmath.Vector, n), Workloads: make([]string, n)}
		a, b := make([]float64, n), make([]float64, n)
		for i := range p.Positions {
			p.Positions[i] = vecmath.Vector{float64(r.Intn(cells)), float64(r.Intn(cells))}
			p.Workloads[i] = fmt.Sprintf("w%d", i)
			a[i] = 0.5 + 2*r.Float64()
			b[i] = 0.5 + 2*r.Float64()
		}
		var err error
		l := linkages[seed%4]
		if p.Dendrogram, err = cluster.NewDendrogramOpts(p.Positions, vecmath.Euclidean, l, cluster.Options{}); err != nil {
			t.Fatal(err)
		}
		kMin := 1 + r.Intn(n)
		kMax := kMin + r.Intn(n+1-kMin)
		kind := MeanKind(seed % 3)
		got, err := p.RecommendK(kind, a, b, kMin, kMax)
		want, werr := referenceRecommendK(p, kind, a, b, kMin, kMax)
		name := fmt.Sprintf("seed %d n=%d %v %v [%d, %d]", seed, n, l, kind, kMin, kMax)
		if (err != nil) != (werr != nil) {
			t.Fatalf("%s: error %v, reference %v", name, err, werr)
		}
		if err != nil {
			continue
		}
		if got.K != want.K || len(got.RatioDamping) != len(want.RatioDamping) || !reflect.DeepEqual(got.Quality, want.Quality) {
			t.Fatalf("%s: k=%d (%d dampings), reference k=%d (%d dampings)", name, got.K, len(got.RatioDamping), want.K, len(want.RatioDamping))
		}
		for k, w := range want.RatioDamping {
			if g, ok := got.RatioDamping[k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: damping at k=%d is %v, reference %v", name, k, g, w)
			}
		}
	}
}
