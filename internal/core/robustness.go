package core

import (
	"errors"
	"fmt"
)

// RedundancyImpact quantifies the paper's motivating attack: a suite
// score is "susceptible to malicious tweaks" because duplicating (or
// near-duplicating) a favourable workload inflates a plain mean,
// while a cluster-aware score keeps the clones inside one cluster and
// is unmoved.
type RedundancyImpact struct {
	// Copies is the number of injected clones (0 = original suite).
	Copies int
	// Plain is the plain mean of the inflated suite.
	Plain float64
	// Hierarchical is the hierarchical mean of the inflated suite
	// with the clones assigned to the victim's cluster.
	Hierarchical float64
}

// InjectRedundancy appends `copies` exact clones of workload
// `victim` to the scores and extends the clustering so the clones
// join the victim's cluster. It returns the inflated scores and
// clustering.
func InjectRedundancy(scores []float64, c Clustering, victim, copies int) ([]float64, Clustering, error) {
	if len(scores) != len(c.Labels) {
		return nil, Clustering{}, fmt.Errorf("core: %d scores for %d workloads", len(scores), len(c.Labels))
	}
	if victim < 0 || victim >= len(scores) {
		return nil, Clustering{}, fmt.Errorf("core: victim index %d out of range", victim)
	}
	if copies < 0 {
		return nil, Clustering{}, errors.New("core: negative copy count")
	}
	outScores := append(append([]float64(nil), scores...), make([]float64, copies)...)
	outLabels := append(append([]int(nil), c.Labels...), make([]int, copies)...)
	for i := 0; i < copies; i++ {
		outScores[len(scores)+i] = scores[victim]
		outLabels[len(c.Labels)+i] = c.Labels[victim]
	}
	return outScores, Clustering{Labels: outLabels, K: c.K}, nil
}

// RedundancySweep measures how the plain and hierarchical means of
// the given family drift as 0..maxCopies clones of the victim
// workload are injected. When the victim is alone in its cluster the
// hierarchical mean is exactly constant under this attack (the inner
// mean of {x, x, …} is x regardless of count); when the cluster has
// other members the drift is bounded by the inner mean's pull toward
// x, still far smaller than the plain mean's. The sweep demonstrates
// both numerically.
func RedundancySweep(kind MeanKind, scores []float64, c Clustering, victim, maxCopies int) ([]RedundancyImpact, error) {
	out := make([]RedundancyImpact, 0, maxCopies+1)
	for copies := 0; copies <= maxCopies; copies++ {
		s, cl, err := InjectRedundancy(scores, c, victim, copies)
		if err != nil {
			return nil, err
		}
		plain, err := PlainMean(kind, s)
		if err != nil {
			return nil, err
		}
		hier, err := HierarchicalMean(kind, s, cl)
		if err != nil {
			return nil, err
		}
		out = append(out, RedundancyImpact{Copies: copies, Plain: plain, Hierarchical: hier})
	}
	return out, nil
}
