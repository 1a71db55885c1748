// Chaos suite: every fault the injector can produce must surface as
// a clean typed error or a quarantine event — never a crash, a hang,
// or a silently wrong mean. CI runs these under -race via
// `go test -race -run Chaos ./...` (make chaos).
package faultinject_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"hmeans/internal/chars"
	"hmeans/internal/cluster"
	"hmeans/internal/core"
	"hmeans/internal/faultinject"
	"hmeans/internal/obs"
	"hmeans/internal/par"
	"hmeans/internal/simbench"
	"hmeans/internal/som"
	"hmeans/internal/vecmath"
)

// caseStudy builds the paper's 13-workload SAR characterization — the
// same table the integration tests cluster.
func caseStudy(t *testing.T) *chars.Table {
	t.Helper()
	ws, _, err := simbench.CalibratedSuite()
	if err != nil {
		t.Fatal(err)
	}
	sar, err := simbench.SARTable(ws, simbench.MachineA(), simbench.SARSpec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return sar
}

func caseStudyConfig() core.PipelineConfig {
	return core.PipelineConfig{SOM: som.Config{Seed: 11}}
}

// TestChaosPoisonedTableQuarantine: non-finite cells either fail with
// a typed data error (strict mode) or quarantine their workloads and
// score the survivors (degradation mode) — across many fault seeds.
func TestChaosPoisonedTableQuarantine(t *testing.T) {
	clean := caseStudy(t)
	for seed := uint64(0); seed < 8; seed++ {
		inj := faultinject.New(seed)
		poisoned, cells := inj.PoisonTable(clean, 3)
		if len(cells) != 3 {
			t.Fatalf("seed %d: poisoned %d cells, want 3", seed, len(cells))
		}

		// Strict mode: typed error, no crash.
		if _, err := core.DetectClusters(poisoned, caseStudyConfig()); !errors.Is(err, core.ErrNonFinite) {
			t.Fatalf("seed %d: strict mode error %v, want ErrNonFinite", seed, err)
		}

		// Degradation mode: survivors clustered, drops traced.
		poisonedRows := map[int]bool{}
		for _, c := range cells {
			poisonedRows[c.Row] = true
		}
		col := obs.NewCollector()
		cfg := caseStudyConfig()
		cfg.Quarantine = true
		cfg.Obs = obs.New(col)
		p, err := core.DetectClusters(poisoned, cfg)
		if err != nil {
			t.Fatalf("seed %d: quarantine mode failed: %v", seed, err)
		}
		if len(p.Quarantined) != len(poisonedRows) {
			t.Fatalf("seed %d: quarantined %d workloads, want %d", seed, len(p.Quarantined), len(poisonedRows))
		}
		events := 0
		for _, e := range col.Trace().Events {
			if e.Name == "pipeline.quarantine" {
				events++
			}
		}
		if events != len(poisonedRows) {
			t.Fatalf("seed %d: %d quarantine events in trace, want %d", seed, events, len(poisonedRows))
		}
		// Full-length scores (quarantined entries poisoned too) must
		// still produce a finite hierarchical mean over the survivors.
		scores := make([]float64, len(clean.Rows))
		for i := range scores {
			scores[i] = 1 + float64(i)
		}
		for row := range poisonedRows {
			scores[row] = math.NaN()
		}
		k := 4
		if max := len(p.Workloads); k > max {
			k = max
		}
		mean, err := p.ScoreAtK(core.Geometric, scores, k)
		if err != nil {
			t.Fatalf("seed %d: scoring survivors: %v", seed, err)
		}
		if math.IsNaN(mean) || math.IsInf(mean, 0) {
			t.Fatalf("seed %d: mean over survivors is %v", seed, mean)
		}
	}
}

// TestChaosWorkerPanicContained: a panicking shard becomes a
// *par.PanicError naming the shard — an error from the Ctx variants,
// a recoverable panic from the plain ones. The process never dies.
func TestChaosWorkerPanicContained(t *testing.T) {
	body := faultinject.PanicOnShard(13, "injected shard failure", func(start, end int) {})
	err := par.ForCtx(context.Background(), 4, 100, body)
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("ForCtx error %v (%T), want *par.PanicError", err, err)
	}
	if pe.Start > 13 || pe.End <= 13 {
		t.Fatalf("panic reported on [%d,%d), want a range containing 13", pe.Start, pe.End)
	}

	recovered := func() (r any) {
		defer func() { r = recover() }()
		par.For(4, 100, body)
		return nil
	}()
	if _, ok := recovered.(*par.PanicError); !ok {
		t.Fatalf("For recovered %T, want *par.PanicError", recovered)
	}
}

// TestChaosSlowShardDeadline: a straggler shard cannot stall the
// dispatch loop past its deadline — the call returns promptly with
// context.DeadlineExceeded instead of hanging.
func TestChaosSlowShardDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	slow := faultinject.SlowShard(0, 100*time.Millisecond, func(start, end int) {})
	start := time.Now()
	_, err := par.FixedShardsCtx(ctx, 2, 64, 1, func(shard, s, e int) { slow(s, e) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want context.DeadlineExceeded", err)
	}
	// In-flight shards finish (no abandonment) but nothing new is
	// dispatched: well under a second, never a hang.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dispatch kept running %v past the deadline", elapsed)
	}
}

// TestChaosCorruptedSOM: truncated and bit-flipped SOM artifacts must
// load with an error or load as a fully usable map — never panic.
func TestChaosCorruptedSOM(t *testing.T) {
	samples := []vecmath.Vector{{0, 0, 1}, {1, 0, 0}, {0, 1, 0}, {1, 1, 1}}
	m, err := som.Train(som.Config{Rows: 3, Cols: 3, Seed: 7}, samples)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for seed := uint64(0); seed < 64; seed++ {
		inj := faultinject.New(seed)
		for _, corrupt := range [][]byte{inj.Truncate(valid), inj.FlipBytes(valid, 1+int(seed%7))} {
			loaded, err := som.Load(bytes.NewReader(corrupt))
			if err != nil {
				continue // clean rejection
			}
			probe := vecmath.NewVector(loaded.Dim())
			r, c := loaded.BMU(probe)
			if r < 0 || r >= loaded.Rows() || c < 0 || c >= loaded.Cols() {
				t.Fatalf("seed %d: accepted map places BMU (%d,%d) outside %dx%d",
					seed, r, c, loaded.Rows(), loaded.Cols())
			}
		}
	}
}

// TestChaosCorruptedDendrogram is the same guarantee for dendrogram
// artifacts: error or structurally sound, never a crash.
func TestChaosCorruptedDendrogram(t *testing.T) {
	pts := []vecmath.Vector{{0, 0}, {0, 1}, {4, 4}, {4, 5}, {9, 0}}
	d, err := cluster.NewDendrogramOpts(pts, vecmath.Euclidean, cluster.Complete, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for seed := uint64(0); seed < 64; seed++ {
		inj := faultinject.New(seed)
		for _, corrupt := range [][]byte{inj.Truncate(valid), inj.FlipBytes(valid, 1+int(seed%7))} {
			loaded, err := cluster.LoadDendrogram(bytes.NewReader(corrupt))
			if err != nil {
				continue // clean rejection
			}
			for k := 1; k <= loaded.Len(); k++ {
				if _, err := loaded.CutK(k); err != nil {
					t.Fatalf("seed %d: accepted dendrogram fails CutK(%d): %v", seed, k, err)
				}
			}
		}
	}
}

// TestChaosCancelledPipeline: cancellation at any stage boundary is a
// clean context error, not a partial result or a hang.
func TestChaosCancelledPipeline(t *testing.T) {
	tab := caseStudy(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.DetectClustersCtx(ctx, tab, caseStudyConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	start := time.Now()
	if _, err := core.DetectClustersCtx(dctx, tab, caseStudyConfig()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > 30*time.Second {
		t.Fatal("pipeline ignored its deadline")
	}
}

// TestChaosCaseStudyBitIdentical: the robustness layer is free when
// unused — a background context and quarantine mode on clean input
// reproduce the plain pipeline's dendrogram and means exactly on the
// 13-workload case study.
func TestChaosCaseStudyBitIdentical(t *testing.T) {
	tab := caseStudy(t)
	plain, err := core.DetectClusters(tab, caseStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := core.DetectClustersCtx(context.Background(), tab, caseStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	qcfg := caseStudyConfig()
	qcfg.Quarantine = true
	quarantined, err := core.DetectClusters(tab, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined.Quarantined) != 0 {
		t.Fatalf("clean case study quarantined %+v", quarantined.Quarantined)
	}

	ws, _, err := simbench.CalibratedSuite()
	if err != nil {
		t.Fatal(err)
	}
	scores, err := simbench.MeasuredSpeedups(ws, simbench.MachineA(), simbench.Reference(), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []*core.Pipeline{withCtx, quarantined} {
		a, b := plain.Dendrogram.Merges(), other.Dendrogram.Merges()
		if len(a) != len(b) {
			t.Fatalf("merge counts differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("merge %d differs: %+v vs %+v", i, a[i], b[i])
			}
		}
		for k := 2; k <= 6; k++ {
			x, err := plain.ScoreAtK(core.Geometric, scores, k)
			if err != nil {
				t.Fatal(err)
			}
			y, err := other.ScoreAtK(core.Geometric, scores, k)
			if err != nil {
				t.Fatal(err)
			}
			if x != y {
				t.Fatalf("k=%d: hierarchical mean diverged: %v vs %v", k, x, y)
			}
		}
	}
}
