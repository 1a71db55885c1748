package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"hmeans/internal/chars"
	"hmeans/internal/obs"
)

// poisonedSuite is syntheticSuite with two rows rendered non-finite.
func poisonedSuite(t *testing.T) *chars.Table {
	t.Helper()
	tab := syntheticSuite(t).Clone()
	tab.Rows[1][2] = math.NaN()
	tab.Rows[4][0] = math.Inf(1)
	return tab
}

func TestValidateTable(t *testing.T) {
	if err := ValidateTable(syntheticSuite(t)); err != nil {
		t.Fatalf("clean table: %v", err)
	}
	err := ValidateTable(poisonedSuite(t))
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("error %v, want ErrNonFinite", err)
	}
	var de *DataError
	if !errors.As(err, &de) {
		t.Fatalf("error %T does not expose *DataError", err)
	}
	if de.Workload != "k1" || de.Feature != "f2" || de.Index != 1 {
		t.Fatalf("located %q/%q row %d, want k1/f2 row 1", de.Workload, de.Feature, de.Index)
	}
	if !de.DataError() {
		t.Fatal("DataError marker is false")
	}
}

func TestValidateScores(t *testing.T) {
	if err := ValidateScores([]float64{1, 2.5, 3}); err != nil {
		t.Fatalf("clean scores: %v", err)
	}
	err := ValidateScores([]float64{1, math.Inf(-1), 3})
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("error %v, want ErrNonFinite", err)
	}
	var de *DataError
	if !errors.As(err, &de) || de.Index != 1 {
		t.Fatalf("error %v does not locate score 1", err)
	}
	for _, v := range []float64{0, math.Copysign(0, -1), -2, -math.SmallestNonzeroFloat64} {
		err := ValidateScores([]float64{1, 2, v})
		if !errors.Is(err, ErrNonPositive) || !errors.As(err, &de) || de.Index != 2 || de.Value != v {
			t.Fatalf("score %v: error %v, want ErrNonPositive at score 2", v, err)
		}
	}
	if err := ValidateScores([]float64{math.SmallestNonzeroFloat64, math.MaxFloat64}); err != nil {
		t.Fatalf("the smallest and largest positive scores: %v", err)
	}
}

// TestDetectClustersRejectsNonFinite: without quarantine, poisoned
// input is a typed data error, not a crash or a silent NaN result.
func TestDetectClustersRejectsNonFinite(t *testing.T) {
	_, err := DetectClusters(poisonedSuite(t), pipelineConfig())
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("error %v, want ErrNonFinite", err)
	}
}

// TestQuarantineDropsPoisonedRows: with quarantine, the pipeline
// clusters the finite survivors, records who was dropped, and scores
// full-length vectors by discarding quarantined entries.
func TestQuarantineDropsPoisonedRows(t *testing.T) {
	col := obs.NewCollector()
	cfg := pipelineConfig()
	cfg.Quarantine = true
	cfg.Obs = obs.New(col)
	p, err := DetectClusters(poisonedSuite(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Quarantined) != 2 {
		t.Fatalf("quarantined %d workloads, want 2: %+v", len(p.Quarantined), p.Quarantined)
	}
	if p.Quarantined[0].Workload != "k1" || p.Quarantined[1].Workload != "g1" {
		t.Fatalf("quarantined %+v, want k1 and g1", p.Quarantined)
	}
	if len(p.Workloads) != 4 {
		t.Fatalf("%d survivors, want 4", len(p.Workloads))
	}
	// The trace records one quarantine event per dropped workload.
	events := 0
	for _, e := range col.Trace().Events {
		if e.Name == "pipeline.quarantine" {
			events++
		}
	}
	if events != 2 {
		t.Fatalf("%d pipeline.quarantine events in trace, want 2", events)
	}

	// A full-length score vector (including quarantined rows) aligns
	// down to the survivors; the quarantined entries may even be NaN.
	full := []float64{1, math.NaN(), 3, 4, math.Inf(1), 6}
	aligned, err := p.AlignScores(full)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 4, 6}
	if len(aligned) != len(want) {
		t.Fatalf("aligned %v, want %v", aligned, want)
	}
	for i := range want {
		if aligned[i] != want[i] {
			t.Fatalf("aligned %v, want %v", aligned, want)
		}
	}
	s, err := p.ScoreAtK(Geometric, full, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(s) || math.IsInf(s, 0) {
		t.Fatalf("hierarchical mean over survivors is %v", s)
	}
	// A vector that matches neither shape is a clear error.
	if _, err := p.AlignScores([]float64{1, 2}); err == nil {
		t.Fatal("AlignScores accepted a 2-element vector")
	}
}

// TestQuarantineEverything: when every row is poisoned the pipeline
// fails with a data error instead of clustering nothing.
func TestQuarantineEverything(t *testing.T) {
	tab := syntheticSuite(t).Clone()
	for i := range tab.Rows {
		tab.Rows[i][0] = math.NaN()
	}
	cfg := pipelineConfig()
	cfg.Quarantine = true
	_, err := DetectClusters(tab, cfg)
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("error %v, want ErrNonFinite", err)
	}
	var de *DataError
	if !errors.As(err, &de) {
		t.Fatalf("error %T does not expose *DataError", err)
	}
}

// TestQuarantineCleanInputUnchanged: quarantine mode on clean input
// is bit-identical to the plain pipeline.
func TestQuarantineCleanInputUnchanged(t *testing.T) {
	plain, err := DetectClusters(syntheticSuite(t), pipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipelineConfig()
	cfg.Quarantine = true
	q, err := DetectClusters(syntheticSuite(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Quarantined) != 0 {
		t.Fatalf("quarantined %+v on clean input", q.Quarantined)
	}
	scores := []float64{1, 2, 3, 4, 5, 6}
	for k := 1; k <= 6; k++ {
		a, err := plain.ScoreAtK(Geometric, scores, k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := q.ScoreAtK(Geometric, scores, k)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("k=%d: quarantine mode changed the mean: %v vs %v", k, a, b)
		}
	}
}

func TestZeroVarianceTyped(t *testing.T) {
	tab, err := chars.NewTable(
		[]string{"a", "b", "c"},
		[]string{"f0", "f1"},
		[][]float64{{3, 9}, {3, 9}, {3, 9}},
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = DetectClusters(tab, pipelineConfig())
	if !errors.Is(err, ErrZeroVariance) {
		t.Fatalf("error %v, want ErrZeroVariance", err)
	}
	var de *DataError
	if !errors.As(err, &de) {
		t.Fatalf("error %T does not expose *DataError", err)
	}
}

// TestDetectClustersCtxBitIdentical proves the ctx-aware entry point
// reproduces DetectClusters exactly when the context never fires.
func TestDetectClustersCtxBitIdentical(t *testing.T) {
	plain, err := DetectClusters(syntheticSuite(t), pipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := DetectClustersCtx(context.Background(), syntheticSuite(t), pipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Map.Equal(withCtx.Map) {
		t.Fatal("SOM diverged under a background context")
	}
	a, b := plain.Dendrogram.Merges(), withCtx.Dendrogram.Merges()
	if len(a) != len(b) {
		t.Fatalf("merge counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("merge %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDetectClustersCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := DetectClustersCtx(ctx, syntheticSuite(t), pipelineConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}
