package hmeans

import (
	"io"

	"hmeans/internal/chars"
	"hmeans/internal/cluster"
	"hmeans/internal/core"
	"hmeans/internal/report"
	"hmeans/internal/som"
	"hmeans/internal/stat"
)

// SOMConfig configures the self-organizing-map stage of the pipeline
// (grid shape, training length, seed). Training always starts on the
// plane of the two major principal components and anneals its
// learning rate and radius exponentially. The zero value uses the
// library defaults, including a grid sized to the sample count. Its
// Starts field is the scoring daemon's table of prepared training
// starts, one per suite, which lets a miss on a suite the daemon has
// scored before skip the seed-free set-up, and of kernel schedules,
// one per grid and step count, which lets a miss on a grid it has
// trained before read every step's kernel instead of computing it;
// nil, the zero value, prepares every run's start and kernel afresh
// and trains the same weights.
type SOMConfig = som.Config

// Interval is a two-sided confidence interval around a statistic.
type Interval = stat.Interval

// BootstrapScoreCI returns a percentile-bootstrap confidence interval
// for the geometric-mean suite score under workload resampling.
func BootstrapScoreCI(scores []float64, level float64, resamples int, seed uint64) (Interval, error) {
	return stat.BootstrapMeanCI(scores, level, resamples, seed)
}

// BootstrapRatioCI returns a paired-bootstrap confidence interval for
// the ratio of two machines' geometric-mean scores, resampling
// workloads with the per-workload pairing preserved. Attach this to
// any headline "machine A is X% faster" claim.
func BootstrapRatioCI(scoresA, scoresB []float64, level float64, resamples int, seed uint64) (Interval, error) {
	return stat.BootstrapRatioCI(scoresA, scoresB, level, resamples, seed)
}

// PairedPermutationTest returns the permutation-test p-value for the
// null hypothesis that two machines' per-workload scores are
// exchangeable (neither is systematically faster), plus the observed
// |log GM ratio| statistic.
func PairedPermutationTest(scoresA, scoresB []float64, permutations int, seed uint64) (pValue, observed float64, err error) {
	return stat.PairedPermutationTest(scoresA, scoresB, permutations, seed)
}

// Dendrogram is the agglomerative merge tree a Pipeline produces
// (Pipeline.Dendrogram); it supports cuts by cluster count or merging
// distance, quality sweeps and JSON serialization.
type Dendrogram = cluster.Dendrogram

// NestedMean generalizes the hierarchical means to several nesting
// levels: cut the pipeline's dendrogram at each cluster count in
// levels and average bottom-up (workloads → subclusters → clusters →
// suite). With one level it equals HierarchicalMean at that cut.
func NestedMean(kind MeanKind, scores []float64, d *Dendrogram, levels []int) (float64, error) {
	return core.NestedMean(kind, scores, d, levels)
}

// FeatureScore ranks one characterization feature's power to
// discriminate a clustering (η² ∈ [0, 1]).
type FeatureScore = chars.FeatureScore

// FeatureImportance scores every feature of a characterization table
// against cluster labels and returns the scores sorted by descending
// η² — which counters make the clusters.
func FeatureImportance(t *Table, labels []int) ([]FeatureScore, error) {
	return chars.FeatureImportance(t, labels)
}

// ReportInput bundles everything a full scoring report needs; see
// WriteReport.
type ReportInput = report.Input

// WriteReport renders a publishable scoring report: per-workload
// scores (with bootstrap intervals when run times are supplied), the
// detected cluster structure with a recommended cut and robustness
// note, and the hierarchical-mean sweep against the plain mean.
func WriteReport(w io.Writer, in ReportInput) error {
	return report.Write(w, in)
}
