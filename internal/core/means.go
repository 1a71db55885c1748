// Package core implements the paper's contribution: the hierarchical
// means — benchmark-suite scores that incorporate workload-cluster
// information to cancel workload redundancy.
//
// Given per-workload scores X and a partition of the n workloads into
// k clusters with sizes n_i, the hierarchical means first reduce each
// cluster to a single representative value with an inner mean, then
// combine the k representatives with an outer mean of the same
// family:
//
//	HGM = ( Π_i ( Π_j X_ij )^{1/n_i} )^{1/k}
//	HAM = ( Σ_i ( Σ_j X_ij )/n_i ) / k
//	HHM = k / Σ_i ( (Σ_j 1/X_ij)/n_i )
//
// All three degenerate gracefully to their plain counterparts when
// every cluster is a singleton (k = n), and to the plain mean of one
// cluster when k = 1.
package core

import (
	"errors"
	"fmt"

	"hmeans/internal/stat"
)

// MeanKind selects the mean family used for both the inner
// (per-cluster) and outer (across-cluster) reduction.
type MeanKind int

const (
	// Geometric selects the hierarchical geometric mean (HGM), the
	// paper's case-study metric and the SPEC convention for speedup
	// ratios.
	Geometric MeanKind = iota
	// Arithmetic selects the hierarchical arithmetic mean (HAM).
	Arithmetic
	// Harmonic selects the hierarchical harmonic mean (HHM).
	Harmonic
)

// String returns the mean family's name.
func (k MeanKind) String() string {
	switch k {
	case Geometric:
		return "geometric"
	case Arithmetic:
		return "arithmetic"
	case Harmonic:
		return "harmonic"
	default:
		return "unknown"
	}
}

// check rejects a MeanKind outside the three families.
func (k MeanKind) check() error {
	if k < Geometric || k > Harmonic {
		return fmt.Errorf("core: unknown mean kind %d", int(k))
	}
	return nil
}

func (k MeanKind) plain(xs []float64) (float64, error) {
	switch k {
	case Geometric:
		return stat.GeometricMean(xs)
	case Arithmetic:
		return stat.ArithmeticMean(xs)
	case Harmonic:
		return stat.HarmonicMean(xs)
	default:
		return 0, k.check()
	}
}

// Clustering assigns each workload (by index) to a cluster label in
// [0, K).
type Clustering struct {
	// Labels[i] is the cluster of workload i.
	Labels []int
	// K is the number of clusters.
	K int
}

// NewClustering validates labels and returns a Clustering. Labels
// must be dense in [0, K) — every cluster non-empty.
func NewClustering(labels []int) (Clustering, error) {
	if len(labels) == 0 {
		return Clustering{}, errors.New("core: empty clustering")
	}
	maxLabel := -1
	for i, l := range labels {
		if l < 0 {
			return Clustering{}, fmt.Errorf("core: negative cluster label %d at workload %d", l, i)
		}
		if l > maxLabel {
			maxLabel = l
		}
	}
	seen := make([]bool, maxLabel+1)
	for _, l := range labels {
		seen[l] = true
	}
	for l, ok := range seen {
		if !ok {
			return Clustering{}, fmt.Errorf("core: cluster label %d is unused (labels must be dense)", l)
		}
	}
	return Clustering{Labels: append([]int(nil), labels...), K: maxLabel + 1}, nil
}

// Singletons returns the degenerate clustering with every workload in
// its own cluster (under which every hierarchical mean equals its
// plain counterpart).
func Singletons(n int) Clustering {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	return Clustering{Labels: labels, K: n}
}

// OneCluster returns the clustering with all n workloads together.
func OneCluster(n int) Clustering {
	return Clustering{Labels: make([]int, n), K: 1}
}

// Sizes returns the number of workloads per cluster.
func (c Clustering) Sizes() []int {
	out := make([]int, c.K)
	for _, l := range c.Labels {
		if l >= 0 && l < c.K {
			out[l]++
		}
	}
	return out
}

// HierarchicalMean computes the hierarchical mean of the given family
// over the scores partitioned by c: the inner mean reduces each
// cluster to one representative, the outer mean combines the
// representatives. It builds a one-shot Scorer; callers evaluating
// several score vectors or mean families against the same clustering
// should hold a Scorer and call Mean directly, which allocates
// nothing per call.
func HierarchicalMean(kind MeanKind, scores []float64, c Clustering) (float64, error) {
	if len(scores) != len(c.Labels) {
		return 0, fmt.Errorf("core: %d scores for %d workloads", len(scores), len(c.Labels))
	}
	s, err := NewScorer(c)
	if err != nil {
		return 0, err
	}
	return s.Mean(kind, scores)
}

// PlainMean computes the flat (non-hierarchical) mean of the given
// family over the scores — the conventional suite score.
func PlainMean(kind MeanKind, scores []float64) (float64, error) {
	return kind.plain(scores)
}

// HGM is shorthand for HierarchicalMean(Geometric, …).
func HGM(scores []float64, c Clustering) (float64, error) {
	return HierarchicalMean(Geometric, scores, c)
}

// HAM is shorthand for HierarchicalMean(Arithmetic, …).
func HAM(scores []float64, c Clustering) (float64, error) {
	return HierarchicalMean(Arithmetic, scores, c)
}

// HHM is shorthand for HierarchicalMean(Harmonic, …).
func HHM(scores []float64, c Clustering) (float64, error) {
	return HierarchicalMean(Harmonic, scores, c)
}

// EquivalentWeights returns the per-workload weights w_i = 1/(K·n_c(i))
// under which the *weighted* mean of the same family equals the
// hierarchical mean (they sum to 1). This makes the relationship to
// the paper's weighted-mean workaround explicit: the hierarchical
// means are a weighted mean whose weights are derived objectively
// from the clustering instead of negotiated by a consortium.
//
// The identity is exact for the geometric mean. For the arithmetic
// and harmonic families it is likewise exact because each inner mean
// is a linear (resp. inverse-linear) aggregate.
func EquivalentWeights(c Clustering) []float64 {
	sizes := c.Sizes()
	out := make([]float64, len(c.Labels))
	for i, l := range c.Labels {
		out[i] = 1 / (float64(c.K) * float64(sizes[l]))
	}
	return out
}
