package core

import (
	"math"
	"testing"

	"hmeans/internal/cluster"
	"hmeans/internal/vecmath"
)

// nestedFixture: four tight pairs arranged as two families of two
// pairs each. Positions force the dendrogram:
//
//	pairs at k=4: {0,1} {2,3} {4,5} {6,7}
//	families at k=2: {0..3} {4..7}
func nestedFixture(t *testing.T) *cluster.Dendrogram {
	t.Helper()
	pts := []vecmath.Vector{
		{0}, {0.1}, {2}, {2.1},
		{50}, {50.1}, {52}, {52.1},
	}
	d, err := cluster.NewDendrogramOpts(pts, vecmath.Euclidean, cluster.Complete, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNestedMeanThreeLevels(t *testing.T) {
	d := nestedFixture(t)
	scores := []float64{2, 8, 4, 4, 1, 1, 9, 9}
	// Level k=4 inner GMs: √16=4, √16=4, 1, 9.
	// Level k=2 family GMs: √(4·4)=4, √(1·9)=3.
	// Outer GM: √12.
	got, err := NestedMean(Geometric, scores, d, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(12)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("nested HGM = %v, want %v", got, want)
	}
}

func TestNestedMeanSingleLevelMatchesHierarchical(t *testing.T) {
	d := nestedFixture(t)
	scores := []float64{2, 8, 4, 4, 1, 1, 9, 9}
	for _, kind := range []MeanKind{Geometric, Arithmetic, Harmonic} {
		for k := 1; k <= 8; k++ {
			a, err := d.CutK(k)
			if err != nil {
				t.Fatal(err)
			}
			c := Clustering{Labels: a.Labels, K: a.K}
			want, err := HierarchicalMean(kind, scores, c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NestedMean(kind, scores, d, []int{k})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("%v k=%d: nested %v != hierarchical %v", kind, k, got, want)
			}
		}
	}
}

func TestNestedMeanDegeneracy(t *testing.T) {
	d := nestedFixture(t)
	scores := []float64{2, 8, 4, 4, 1, 1, 9, 9}
	// Levels {n} = plain mean; levels {1, n} also plain (one outer
	// group of singleton-level representatives... the k=1 level wraps
	// everything in one mean of the k=n representatives = plain).
	plain, _ := PlainMean(Geometric, scores)
	got, err := NestedMean(Geometric, scores, d, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-plain) > 1e-12 {
		t.Fatalf("levels {n}: %v != plain %v", got, plain)
	}
	got2, err := NestedMean(Geometric, scores, d, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got2-plain) > 1e-12 {
		t.Fatalf("levels {1,n}: %v != plain %v", got2, plain)
	}
}

func TestNestedMeanLevelOrderIrrelevant(t *testing.T) {
	d := nestedFixture(t)
	scores := []float64{2, 8, 4, 4, 1, 1, 9, 9}
	a, err := NestedMean(Geometric, scores, d, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NestedMean(Geometric, scores, d, []int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("level order changed the result: %v vs %v", a, b)
	}
}

func TestNestedMeanErrors(t *testing.T) {
	d := nestedFixture(t)
	scores := []float64{2, 8, 4, 4, 1, 1, 9, 9}
	if _, err := NestedMean(Geometric, scores, nil, []int{2}); err == nil {
		t.Error("nil dendrogram accepted")
	}
	if _, err := NestedMean(Geometric, scores[:3], d, []int{2}); err == nil {
		t.Error("score length mismatch accepted")
	}
	if _, err := NestedMean(Geometric, scores, d, nil); err == nil {
		t.Error("no levels accepted")
	}
	if _, err := NestedMean(Geometric, scores, d, []int{0}); err == nil {
		t.Error("level 0 accepted")
	}
	if _, err := NestedMean(Geometric, scores, d, []int{9}); err == nil {
		t.Error("level > n accepted")
	}
	if _, err := NestedMean(Geometric, scores, d, []int{2, 2}); err == nil {
		t.Error("duplicate level accepted")
	}
	bad := append([]float64(nil), scores...)
	bad[0] = -1
	if _, err := NestedMean(Geometric, bad, d, []int{2, 4}); err == nil {
		t.Error("negative score accepted")
	}
}

func TestNestedMeanCancelsFamilyRedundancy(t *testing.T) {
	// The motivating scenario: one family holds two redundant pairs
	// of fast kernels; flat two-level HGM at k=4 still counts that
	// family twice, the three-level nesting counts it once.
	d := nestedFixture(t)
	scores := []float64{8, 8, 8, 8, 1, 1, 2, 2}
	a4, _ := d.CutK(4)
	flat, err := HierarchicalMean(Geometric, scores, Clustering{Labels: a4.Labels, K: a4.K})
	if err != nil {
		t.Fatal(err)
	}
	nested, err := NestedMean(Geometric, scores, d, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// With balanced families both reduce to 2^1.75: flat is
	// (8·8·1·2)^(1/4), nested is √(8·√2). The GM's log-linearity
	// makes balanced nesting coincide; the value still must not be
	// dominated by the redundant fast family.
	if math.Abs(flat-math.Pow(2, 1.75)) > 1e-12 || math.Abs(nested-flat) > 1e-12 {
		t.Fatalf("balanced nesting: flat %v, nested %v, want both 2^1.75", flat, nested)
	}
	// Unbalanced levels (k=5 splits one family asymmetrically) must
	// diverge from the flat score while staying bounded.
	nested25, err := NestedMean(Geometric, scores, d, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if nested25 <= 0 || nested25 >= 8 {
		t.Fatalf("nested {2,5} mean %v out of range", nested25)
	}
	if nested >= 8 {
		t.Fatalf("nested mean %v dominated by the redundant family", nested)
	}
}
