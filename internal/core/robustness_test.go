package core

import (
	"testing"
)

func TestInjectRedundancy(t *testing.T) {
	scores := []float64{2, 8}
	c, _ := NewClustering([]int{0, 1})
	s2, c2, err := InjectRedundancy(scores, c, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2) != 5 || len(c2.Labels) != 5 {
		t.Fatalf("inflated lengths = %d/%d, want 5/5", len(s2), len(c2.Labels))
	}
	for i := 2; i < 5; i++ {
		if s2[i] != 8 || c2.Labels[i] != 1 {
			t.Fatalf("clone %d = (%v, %d), want (8, 1)", i, s2[i], c2.Labels[i])
		}
	}
	// Originals untouched.
	if len(scores) != 2 || len(c.Labels) != 2 {
		t.Fatal("InjectRedundancy mutated its inputs")
	}
}

func TestInjectRedundancyErrors(t *testing.T) {
	c, _ := NewClustering([]int{0, 1})
	if _, _, err := InjectRedundancy([]float64{1}, c, 0, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := InjectRedundancy([]float64{1, 2}, c, 5, 1); err == nil {
		t.Error("out-of-range victim accepted")
	}
	if _, _, err := InjectRedundancy([]float64{1, 2}, c, 0, -1); err == nil {
		t.Error("negative copies accepted")
	}
}

func TestRedundancySweepPlainDriftsHierarchicalStays(t *testing.T) {
	// Victim (score 9) is a singleton cluster; others score 1.
	scores := []float64{9, 1, 1}
	c, _ := NewClustering([]int{0, 1, 2})
	sweep, err := RedundancySweep(Geometric, scores, c, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 9 {
		t.Fatalf("sweep length = %d, want 9", len(sweep))
	}
	base := sweep[0]
	if !almostEqual(base.Plain, base.Hierarchical, 1e-12) {
		t.Fatalf("with singletons plain %v != hierarchical %v", base.Plain, base.Hierarchical)
	}
	for _, imp := range sweep[1:] {
		// Plain mean must strictly increase with favourable clones.
		if imp.Plain <= base.Plain {
			t.Fatalf("plain mean did not inflate at %d copies: %v", imp.Copies, imp.Plain)
		}
		// Hierarchical mean must be exactly stable (victim cluster is
		// all clones of the same score).
		if !almostEqual(imp.Hierarchical, base.Hierarchical, 1e-12) {
			t.Fatalf("hierarchical mean drifted at %d copies: %v -> %v",
				imp.Copies, base.Hierarchical, imp.Hierarchical)
		}
	}
	// The attack is substantial: by 8 copies the plain GM has grown
	// by more than 50%.
	if sweep[8].Plain < base.Plain*1.5 {
		t.Fatalf("attack too weak to demonstrate: %v -> %v", base.Plain, sweep[8].Plain)
	}
}

func TestRedundancySweepAllKinds(t *testing.T) {
	scores := []float64{5, 2, 1}
	c, _ := NewClustering([]int{0, 1, 2})
	for _, kind := range []MeanKind{Geometric, Arithmetic, Harmonic} {
		sweep, err := RedundancySweep(kind, scores, c, 0, 4)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for _, imp := range sweep {
			if !almostEqual(imp.Hierarchical, sweep[0].Hierarchical, 1e-12) {
				t.Fatalf("%v: hierarchical drifted: %+v", kind, imp)
			}
		}
	}
}
