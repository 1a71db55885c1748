package core

import (
	"testing"

	"hmeans/internal/obs"
)

// TestPipelineTrace checks the tracing acceptance criteria: the
// pipeline emits a root span with one child per stage, the stage
// spans explain (nearly) all of the root's wall-clock, and the
// scoring methods add cut/means spans.
func TestPipelineTrace(t *testing.T) {
	col := obs.NewCollector()
	o := obs.New(col)
	cfg := pipelineConfig()
	cfg.Obs = o
	p, err := DetectClusters(syntheticSuite(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ScoreAtK(Geometric, []float64{1, 2, 3, 4, 5, 6}, 3); err != nil {
		t.Fatal(err)
	}

	tr := col.Trace()
	byName := map[string]int{}
	for _, s := range tr.Spans {
		byName[s.Name]++
	}
	for _, want := range []string{"pipeline", "characterize", "reduce", "cluster", "som.train", "cluster.linkage", "cut", "means"} {
		if byName[want] == 0 {
			t.Fatalf("no %q span; got %v", want, byName)
		}
	}

	// Stage spans must be children of the pipeline root and account
	// for >= 95% of its wall-clock (the acceptance threshold).
	cov, ok := tr.Coverage("pipeline")
	if !ok {
		t.Fatal("coverage undefined: no pipeline root span")
	}
	if cov < 0.95 {
		t.Fatalf("stage coverage = %.3f, want >= 0.95", cov)
	}

	// The run must land in the metrics registry too.
	snap := o.Metrics().Snapshot()
	if runs, _ := snap["pipeline.runs"].(int64); runs != 1 {
		t.Fatalf("pipeline.runs = %v", snap["pipeline.runs"])
	}
	if _, ok := snap["mem.heap_alloc_bytes"]; !ok {
		t.Fatal("memory stats not captured")
	}
	// pipelineConfig trains sequentially, so the step counter and
	// annealing gauges must be present.
	if steps, _ := snap["som.steps"].(int64); steps <= 0 {
		t.Fatalf("som.steps = %v", snap["som.steps"])
	}
	if _, ok := snap["som.sigma"]; !ok {
		t.Fatal("no som.sigma gauge")
	}
}

// TestPipelineUninstrumented pins the "observability off" contract: a
// nil Obs with no process default must run every path without
// recording anything, and results must match the instrumented run
// bit-for-bit.
func TestPipelineUninstrumented(t *testing.T) {
	if obs.Default() != nil {
		t.Fatal("test requires no default observer")
	}
	bare, err := DetectClusters(syntheticSuite(t), pipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	cfg := pipelineConfig()
	cfg.Obs = obs.New(col)
	traced, err := DetectClusters(syntheticSuite(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bm, tm := bare.Dendrogram.Merges(), traced.Dendrogram.Merges()
	if len(bm) != len(tm) {
		t.Fatalf("merge counts differ: %d vs %d", len(bm), len(tm))
	}
	for i := range bm {
		if bm[i] != tm[i] {
			t.Fatalf("merge %d differs: %+v vs %+v", i, bm[i], tm[i])
		}
	}
	sA, err := bare.ScoreAtK(Geometric, []float64{1, 2, 3, 4, 5, 6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sB, err := traced.ScoreAtK(Geometric, []float64{1, 2, 3, 4, 5, 6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sA != sB {
		t.Fatalf("scores differ: %v vs %v", sA, sB)
	}
}

// TestPipelineProgressGauges checks the stage-boundary gauges a
// /metrics scrape sees during a run: after completion pipeline.stage
// sits at the last stage, and both the pipeline-level and the cluster
// stage's merge-fraction progress gauges read 1.
func TestPipelineProgressGauges(t *testing.T) {
	o := obs.New(obs.NewCollector())
	cfg := pipelineConfig()
	cfg.Obs = o
	if _, err := DetectClusters(syntheticSuite(t), cfg); err != nil {
		t.Fatal(err)
	}
	if got := o.Metrics().Gauge("pipeline.stage").Value(); got != 4 {
		t.Fatalf("pipeline.stage gauge = %v, want 4", got)
	}
	if got := o.Metrics().Gauge("pipeline.progress").Value(); got != 1 {
		t.Fatalf("pipeline.progress gauge = %v, want 1", got)
	}
	if got := o.Metrics().Gauge("cluster.progress").Value(); got != 1 {
		t.Fatalf("cluster.progress gauge = %v, want 1", got)
	}
}

// TestRecommendKTelemetry checks that k selection reports its sweep
// (one candidate event per k) and its decision (kselect.k gauge).
func TestRecommendKTelemetry(t *testing.T) {
	col := obs.NewCollector()
	o := obs.New(col)
	cfg := pipelineConfig()
	cfg.Obs = o
	p, err := DetectClusters(syntheticSuite(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := []float64{1.1, 1.2, 1.15, 2.0, 2.1, 0.4}
	b := []float64{1, 1, 1, 1, 1, 1}
	rec, err := p.RecommendK(Geometric, a, b, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := col.Trace()
	var kselect, candidates int
	for _, s := range tr.Spans {
		if s.Name == "kselect" {
			kselect++
		}
	}
	for _, e := range tr.Events {
		if e.Name == "kselect.candidate" {
			candidates++
		}
	}
	if kselect != 1 {
		t.Fatalf("kselect spans = %d", kselect)
	}
	if candidates != len(rec.Quality) {
		t.Fatalf("candidate events = %d, want %d", candidates, len(rec.Quality))
	}
	if got := o.Metrics().Gauge("kselect.k").Value(); int(got) != rec.K {
		t.Fatalf("kselect.k gauge = %v, recommendation = %d", got, rec.K)
	}
}
