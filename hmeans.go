// Package hmeans implements the hierarchical means of Yoo, Lee, Lee
// and Chow, "Hierarchical Means: Single Number Benchmarking with
// Workload Cluster Analysis" (IISWC 2007): benchmark-suite scores
// that incorporate workload-cluster information to cancel the bias
// introduced by redundant workloads.
//
// The package is a thin facade over the implementation packages under
// internal/: scoring (hierarchical/plain/weighted means), the full
// cluster-detection pipeline (characterization preprocessing →
// self-organizing map → agglomerative hierarchical clustering), and
// the simulated benchmarking substrate used to reproduce the paper's
// case study.
//
// # Scoring
//
// Given per-workload scores and a clustering, the hierarchical mean
// first reduces each cluster to a single representative with an inner
// mean, then averages the representatives with an outer mean of the
// same family:
//
//	scores := []float64{4.75, 5.32, 1.09, 1.19}       // speedups
//	c, _ := hmeans.NewClustering([]int{0, 0, 1, 1})   // two clusters
//	score, _ := hmeans.HGM(scores, c)                 // hierarchical geometric mean
//
// With singleton clusters every hierarchical mean degenerates to its
// plain counterpart (hmeans.PlainMean).
//
// # Cluster detection
//
// When no clustering is known a priori, DetectClusters runs the
// paper's pipeline on a characterization table (OS counters or
// method-usage bits):
//
//	table, _ := hmeans.NewTable(names, counters, rows)
//	p, _ := hmeans.DetectClusters(table, hmeans.PipelineConfig{})
//	score, _ := p.ScoreAtK(hmeans.Geometric, scores, 6)
package hmeans

import (
	"context"

	"hmeans/internal/chars"
	"hmeans/internal/core"
	"hmeans/internal/vecmath"
)

// MeanKind selects the mean family (Geometric, Arithmetic, Harmonic).
type MeanKind = core.MeanKind

// Mean families.
const (
	// Geometric selects the hierarchical geometric mean (HGM), the
	// paper's case-study metric.
	Geometric = core.Geometric
	// Arithmetic selects the hierarchical arithmetic mean (HAM).
	Arithmetic = core.Arithmetic
	// Harmonic selects the hierarchical harmonic mean (HHM).
	Harmonic = core.Harmonic
)

// Clustering assigns each workload to a cluster label in [0, K).
type Clustering = core.Clustering

// NewClustering validates dense labels and returns a Clustering.
func NewClustering(labels []int) (Clustering, error) { return core.NewClustering(labels) }

// Singletons returns the clustering with every workload alone — the
// degenerate case under which hierarchical means equal plain means.
func Singletons(n int) Clustering { return core.Singletons(n) }

// OneCluster returns the clustering with all n workloads together.
func OneCluster(n int) Clustering { return core.OneCluster(n) }

// HierarchicalMean computes the hierarchical mean of the given family
// over the scores partitioned by c.
func HierarchicalMean(kind MeanKind, scores []float64, c Clustering) (float64, error) {
	return core.HierarchicalMean(kind, scores, c)
}

// PlainMean computes the flat (non-hierarchical) mean.
func PlainMean(kind MeanKind, scores []float64) (float64, error) {
	return core.PlainMean(kind, scores)
}

// HGM is the hierarchical geometric mean.
func HGM(scores []float64, c Clustering) (float64, error) { return core.HGM(scores, c) }

// HAM is the hierarchical arithmetic mean.
func HAM(scores []float64, c Clustering) (float64, error) { return core.HAM(scores, c) }

// HHM is the hierarchical harmonic mean.
func HHM(scores []float64, c Clustering) (float64, error) { return core.HHM(scores, c) }

// EquivalentWeights returns the per-workload weights under which the
// weighted mean of the same family equals the hierarchical mean —
// the objective replacement for the paper's negotiated weights.
func EquivalentWeights(c Clustering) []float64 { return core.EquivalentWeights(c) }

// Table is a named workloads × features characterization matrix.
type Table = chars.Table

// NewTable wraps a characterization matrix with validation.
func NewTable(workloads, features []string, rows [][]float64) (*Table, error) {
	return chars.NewTable(workloads, features, rows)
}

// FromBits builds a Table from a boolean usage matrix (e.g. method
// coverage).
func FromBits(workloads, features []string, bits [][]bool) (*Table, error) {
	return chars.FromBits(workloads, features, bits)
}

// CharKind selects the preprocessing recipe for a characterization.
type CharKind = core.CharKind

// Characterization kinds.
const (
	// Counters marks continuous measurements (SAR-style counters).
	Counters = core.Counters
	// Bits marks usage bit vectors (method utilization).
	Bits = core.Bits
)

// PipelineConfig configures cluster detection; the zero value uses
// the paper's choices (counter preprocessing, SOM reduction sized to
// the sample count, complete linkage, Euclidean distance). A pipeline
// runs on the calling goroutine; callers that score many suites run
// pipelines side by side.
type PipelineConfig = core.PipelineConfig

// Pipeline is a completed cluster detection: preprocessed table,
// trained SOM, positions and dendrogram, with scoring helpers.
type Pipeline = core.Pipeline

// DetectClusters runs the paper's pipeline: preprocessing → SOM →
// hierarchical clustering.
func DetectClusters(table *Table, cfg PipelineConfig) (*Pipeline, error) {
	return core.DetectClusters(table, cfg)
}

// DetectClustersCtx is DetectClusters with cooperative cancellation:
// the context is honoured between pipeline stages, every few hundred
// SOM training steps and between linkage merge steps. A context that
// never fires yields results bit-identical to DetectClusters.
func DetectClustersCtx(ctx context.Context, table *Table, cfg PipelineConfig) (*Pipeline, error) {
	return core.DetectClustersCtx(ctx, table, cfg)
}

// ErrNonFinite marks input containing NaN or ±Inf values.
var ErrNonFinite = core.ErrNonFinite

// ErrZeroVariance marks a characterization left featureless by
// preprocessing: nothing varies, so nothing can be clustered.
var ErrZeroVariance = core.ErrZeroVariance

// DataError locates invalid input data (workload, feature, value).
// The cmd/ binaries exit with status 3 on these.
type DataError = core.DataError

// Quarantine records one workload dropped by the pipeline's
// graceful-degradation mode (PipelineConfig.Quarantine).
type Quarantine = core.Quarantine

// ValidateTable returns a *DataError naming the first non-finite cell
// of a characterization table, or nil when the table is clean.
func ValidateTable(t *Table) error { return core.ValidateTable(t) }

// ValidateScores returns a *DataError for the first non-finite score.
func ValidateScores(scores []float64) error { return core.ValidateScores(scores) }

// RedundancyImpact quantifies score drift under workload cloning.
type RedundancyImpact = core.RedundancyImpact

// InjectRedundancy appends clones of a workload to scores and
// clustering (the paper's malicious-tweak scenario).
func InjectRedundancy(scores []float64, c Clustering, victim, copies int) ([]float64, Clustering, error) {
	return core.InjectRedundancy(scores, c, victim, copies)
}

// RedundancySweep measures plain-vs-hierarchical drift as clones of
// the victim workload are injected.
func RedundancySweep(kind MeanKind, scores []float64, c Clustering, victim, maxCopies int) ([]RedundancyImpact, error) {
	return core.RedundancySweep(kind, scores, c, victim, maxCopies)
}

// Subset is a one-representative-per-cluster suite reduction.
type Subset = core.Subset

// SelectSubset picks each cluster's medoid in the reduced space —
// cluster-based benchmark subsetting, the companion application of
// workload cluster analysis (prior work the paper cites uses cluster
// information this way; the hierarchical means reweight instead).
func SelectSubset(positions []vecmath.Vector, c Clustering) (Subset, error) {
	return core.SelectSubset(positions, c)
}

// SubsetError reports how closely the subset's plain mean tracks the
// full suite's hierarchical mean of the same family.
func SubsetError(kind MeanKind, full []float64, s Subset) (float64, error) {
	return core.SubsetError(kind, full, s)
}

// KRecommendation explains a recommended cluster count (quality sweep
// plus the paper's ratio-dampening signal).
type KRecommendation = core.KRecommendation

// Diversity summarizes how much unique behaviour a suite contains
// under a clustering (effective cluster count, redundancy fraction,
// largest-cluster share).
type Diversity = core.Diversity

// AnalyzeDiversity computes the diversity summary of a clustering —
// the quantitative suite-evaluation verdict the paper proposes.
func AnalyzeDiversity(c Clustering) (Diversity, error) { return core.AnalyzeDiversity(c) }

// Sensitivity reports how far the hierarchical mean can move under
// single-workload cluster reassignments.
type Sensitivity = core.Sensitivity

// ClusteringSensitivity measures the robustness of a hierarchical
// mean to plausible clustering mistakes: it tries every
// single-workload move to another cluster and reports the worst score
// shift.
func ClusteringSensitivity(kind MeanKind, scores []float64, c Clustering) (Sensitivity, error) {
	return core.ClusteringSensitivity(kind, scores, c)
}
