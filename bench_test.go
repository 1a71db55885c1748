// Benchmark harness: one testing.B benchmark per paper table and
// figure (regenerating the artifact end to end), plus ablation
// benches for the design choices called out in DESIGN.md. The rows
// themselves are printed by cmd/experiments; these benches measure
// the cost of regenerating them and keep every code path exercised
// under -bench.
package hmeans_test

import (
	"context"
	"io"
	"testing"

	"hmeans"
	"hmeans/internal/cluster"
	"hmeans/internal/core"
	"hmeans/internal/experiments"
	"hmeans/internal/obs"
	"hmeans/internal/pca"
	"hmeans/internal/simbench"
	"hmeans/internal/som"
	"hmeans/internal/vecmath"
)

// benchSuite lazily builds one shared experiment campaign.
var benchSuite *experiments.Suite

func suiteForBench(b *testing.B) *experiments.Suite {
	b.Helper()
	if benchSuite == nil {
		s, err := experiments.NewSuite(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		benchSuite = s
	}
	return benchSuite
}

func benchExperiment(b *testing.B, id string) {
	b.ReportAllocs()
	s := suiteForBench(b)
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(s, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Paper tables ---

func BenchmarkTableI(b *testing.B)   { benchExperiment(b, "tableI") }
func BenchmarkTableII(b *testing.B)  { benchExperiment(b, "tableII") }
func BenchmarkTableIII(b *testing.B) { benchExperiment(b, "tableIII") }
func BenchmarkTableIV(b *testing.B)  { benchExperiment(b, "tableIV") }
func BenchmarkTableV(b *testing.B)   { benchExperiment(b, "tableV") }
func BenchmarkTableVI(b *testing.B)  { benchExperiment(b, "tableVI") }

// --- Paper figures ---

func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFullCampaign regenerates every artifact from scratch,
// including measurement and all three pipelines.
func BenchmarkFullCampaign(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := experiments.NewSuite(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RunAllCtx(context.Background(), s, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Core scoring microbenchmarks ---

func benchScores() ([]float64, hmeans.Clustering) {
	scores := make([]float64, 13)
	labels := make([]int, 13)
	for i := range scores {
		scores[i] = 0.5 + float64(i)*0.37
		labels[i] = i % 5
	}
	c, _ := hmeans.NewClustering(labels)
	return scores, c
}

func BenchmarkHGM(b *testing.B) {
	b.ReportAllocs()
	scores, c := benchScores()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hmeans.HGM(scores, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHAM(b *testing.B) {
	b.ReportAllocs()
	scores, c := benchScores()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hmeans.HAM(scores, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHHM(b *testing.B) {
	b.ReportAllocs()
	scores, c := benchScores()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hmeans.HHM(scores, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlainGM(b *testing.B) {
	b.ReportAllocs()
	scores, _ := benchScores()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hmeans.PlainMean(hmeans.Geometric, scores); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md Section 5) ---

// BenchmarkAblationMeanFamily compares the three hierarchical mean
// families on the measured machine-A speedups and the SAR-A
// clustering.
func BenchmarkAblationMeanFamily(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	p, err := s.Pipeline(experiments.SARMachineA)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []core.MeanKind{core.Geometric, core.Arithmetic, core.Harmonic} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.ScoreAtK(kind, s.SpeedupsA, 6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLinkage compares linkage rules on the SAR-A SOM
// positions.
func BenchmarkAblationLinkage(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	p, err := s.Pipeline(experiments.SARMachineA)
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range []cluster.Linkage{cluster.Complete, cluster.Single, cluster.Average, cluster.Ward} {
		l := l
		b.Run(l.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.NewDendrogramOpts(p.Positions, vecmath.Euclidean, l, cluster.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationReduction compares the paper's SOM reduction
// against the prior-work PCA(2) baseline and against clustering the
// raw standardized vectors directly.
func BenchmarkAblationReduction(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	p, err := s.Pipeline(experiments.SARMachineA)
	if err != nil {
		b.Fatal(err)
	}
	vectors := p.Prepared.Vectors()
	rows := make([][]float64, len(vectors))
	for i, v := range vectors {
		rows[i] = v
	}
	b.Run("som", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := som.TrainCtx(context.Background(), som.Config{Seed: 2007, Rows: 5, Cols: 4}, vectors)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cluster.NewDendrogramOpts(m.Placements(vectors), vecmath.Euclidean, cluster.Complete, cluster.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pca2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			model, err := pca.Fit(context.Background(), rows, 2)
			if err != nil {
				b.Fatal(err)
			}
			scores, err := model.Transform(rows)
			if err != nil {
				b.Fatal(err)
			}
			pts := make([]vecmath.Vector, len(scores))
			for j, sc := range scores {
				pts[j] = sc
			}
			if _, err := cluster.NewDendrogramOpts(pts, vecmath.Euclidean, cluster.Complete, cluster.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.NewDendrogramOpts(vectors, vecmath.Euclidean, cluster.Complete, cluster.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationGridSize measures SOM training across grid sizes
// (the stability/size trade-off discussed in som.GridFor).
func BenchmarkAblationGridSize(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	p, err := s.Pipeline(experiments.SARMachineA)
	if err != nil {
		b.Fatal(err)
	}
	vectors := p.Prepared.Vectors()
	for _, g := range []struct{ r, c int }{{4, 4}, {5, 4}, {8, 8}, {10, 10}} {
		g := g
		b.Run(gridName(g.r, g.c), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := som.TrainCtx(context.Background(), som.Config{Rows: g.r, Cols: g.c, Seed: 1}, vectors); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func gridName(r, c int) string {
	return string(rune('0'+r)) + "x" + string(rune('0'+c))
}

// BenchmarkRedundancySweep measures the malicious-tweak analysis.
func BenchmarkRedundancySweep(b *testing.B) {
	b.ReportAllocs()
	scores, c := benchScores()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hmeans.RedundancySweep(hmeans.Geometric, scores, c, 0, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtStability measures the cross-seed stability analysis
// (4 SOM retrainings per run).
func BenchmarkExtStability(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Stability(experiments.SARMachineA, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtConfidence measures the paired-bootstrap ratio
// analysis.
func BenchmarkExtConfidence(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Confidence(experiments.SARMachineA, 6, 0.95, 500, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendK measures the cluster-count recommendation over
// the paper suite.
func BenchmarkRecommendK(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	p, err := s.Pipeline(experiments.SARMachineA)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RecommendK(core.Geometric, s.SpeedupsA, s.SpeedupsB, 2, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusteringSensitivity measures the reassignment-robustness
// analysis at k=6.
func BenchmarkClusteringSensitivity(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	p, err := s.Pipeline(experiments.SARMachineA)
	if err != nil {
		b.Fatal(err)
	}
	c, err := p.ClusteringAtK(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ClusteringSensitivity(core.Geometric, s.SpeedupsA, c); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Observability overhead ---

// benchPipeline runs the full cluster-detection pipeline plus one
// scoring cut, the unit of work the obs overhead comparison measures.
func benchPipeline(b *testing.B, o *obs.Observer) {
	s := suiteForBench(b)
	tab, err := simbench.SARTable(s.Workloads, simbench.MachineA(), simbench.SARSpec{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := hmeans.DetectClusters(tab, hmeans.PipelineConfig{
			SOM: som.Config{Seed: 2007},
			Obs: o,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.ScoreAtK(hmeans.Geometric, s.SpeedupsA, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineBare is the uninstrumented pipeline: no observer
// anywhere, the exact pre-obs hot path.
func BenchmarkPipelineBare(b *testing.B) {
	b.ReportAllocs()
	if obs.Default() != nil {
		b.Fatal("benchmark requires no default observer")
	}
	benchPipeline(b, nil)
}

// BenchmarkPipelineNoopObs is the same work with a no-op-sink
// observer attached: spans are created and timed, metrics recorded,
// everything discarded. The acceptance bar is staying within a few
// percent of BenchmarkPipelineBare.
func BenchmarkPipelineNoopObs(b *testing.B) {
	b.ReportAllocs()
	benchPipeline(b, obs.New())
}

// BenchmarkMeasurement measures the simulated 10-run measurement
// campaign for one machine.
func BenchmarkMeasurement(b *testing.B) {
	b.ReportAllocs()
	ws, _, err := simbench.CalibratedSuite()
	if err != nil {
		b.Fatal(err)
	}
	ref := simbench.Reference()
	a := simbench.MachineA()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simbench.MeasuredSpeedups(ws, a, ref, 10, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
