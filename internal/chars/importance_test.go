package chars

import (
	"math"
	"testing"
)

func TestFeatureImportanceRanks(t *testing.T) {
	// f0 separates the clusters perfectly, f1 is pure noise across
	// them, f2 is constant.
	tab := mustTable(t,
		[]string{"a", "b", "c", "d"},
		[]string{"separator", "noise", "const"},
		[][]float64{
			{10, 5, 7},
			{10, -5, 7},
			{-10, 5, 7},
			{-10, -5, 7},
		})
	labels := []int{0, 0, 1, 1}
	scores, err := FeatureImportance(tab, labels)
	if err != nil {
		t.Fatal(err)
	}
	if scores[0].Feature != "separator" || math.Abs(scores[0].EtaSquared-1) > 1e-12 {
		t.Fatalf("top feature = %+v, want separator with eta2=1", scores[0])
	}
	for _, s := range scores[1:] {
		if s.Feature == "noise" && s.EtaSquared > 1e-12 {
			t.Fatalf("noise feature scored %v", s.EtaSquared)
		}
		if s.Feature == "const" && s.EtaSquared != 0 {
			t.Fatalf("constant feature scored %v", s.EtaSquared)
		}
	}
}

func TestFeatureImportanceBounds(t *testing.T) {
	tab := mustTable(t,
		[]string{"a", "b", "c"},
		[]string{"f0", "f1"},
		[][]float64{{1, 9}, {2, 3}, {5, 4}})
	scores, err := FeatureImportance(tab, []int{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scores {
		if s.EtaSquared < 0 || s.EtaSquared > 1 {
			t.Fatalf("eta2 %v out of [0,1]", s.EtaSquared)
		}
	}
	// Sorted descending.
	for i := 1; i < len(scores); i++ {
		if scores[i].EtaSquared > scores[i-1].EtaSquared {
			t.Fatal("scores not sorted")
		}
	}
}

func TestFeatureImportanceErrors(t *testing.T) {
	tab := mustTable(t, []string{"a"}, []string{"f"}, [][]float64{{1}})
	if _, err := FeatureImportance(tab, []int{0, 1}); err == nil {
		t.Error("label length mismatch accepted")
	}
	if _, err := FeatureImportance(tab, []int{-1}); err == nil {
		t.Error("negative label accepted")
	}
}
