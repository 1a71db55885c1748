package core

import (
	"errors"
	"math"

	"hmeans/internal/cluster"
)

// Diversity quantifies how much unique behaviour a suite actually
// contains given its clustering — the paper's "analyze the inherent
// redundancy and cluster characteristics in a quantitative manner"
// use case reduced to summary numbers.
type Diversity struct {
	// Workloads is the suite size n.
	Workloads int
	// Clusters is the cluster count k.
	Clusters int
	// EffectiveClusters is exp(H) where H is the Shannon entropy of
	// the cluster-size distribution: the "true diversity" (Hill
	// number of order 1). It equals k when clusters are balanced and
	// approaches 1 as one cluster swallows the suite.
	EffectiveClusters float64
	// Redundancy is 1 − EffectiveClusters/n: 0 for a suite of
	// singletons (no redundancy), approaching 1 − 1/n when every
	// workload is behaviourally the same.
	Redundancy float64
	// LargestClusterShare is the fraction of the suite inside the
	// biggest cluster — the single number that exposes an adoption
	// set coagulating (SciMark2's 5/13 = 0.385 in the paper's case
	// study).
	LargestClusterShare float64
}

// AnalyzeDiversity computes the diversity summary of a clustering.
func AnalyzeDiversity(c Clustering) (Diversity, error) {
	n := len(c.Labels)
	if n == 0 {
		return Diversity{}, errors.New("core: empty clustering")
	}
	sizes := c.Sizes()
	entropy := 0.0
	largest := 0
	for _, s := range sizes {
		if s == 0 {
			return Diversity{}, errors.New("core: empty cluster")
		}
		p := float64(s) / float64(n)
		entropy -= p * math.Log(p)
		if s > largest {
			largest = s
		}
	}
	eff := math.Exp(entropy)
	return Diversity{
		Workloads:           n,
		Clusters:            c.K,
		EffectiveClusters:   eff,
		Redundancy:          1 - eff/float64(n),
		LargestClusterShare: float64(largest) / float64(n),
	}, nil
}

// DiversitySweep analyzes every cut of the pipeline's dendrogram in
// [kMin, kMax], tracing how the suite's effective diversity grows as
// the clustering is refined. The cuts come from one walk of the
// dendrogram.
func (p *Pipeline) DiversitySweep(kMin, kMax int) ([]Diversity, error) {
	var out []Diversity
	err := p.Dendrogram.EachCut(kMin, kMax, func(cut cluster.Assignment) error {
		d, err := AnalyzeDiversity(Clustering{Labels: cut.Labels, K: cut.K})
		if err != nil {
			return err
		}
		out = append(out, d)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, errors.New("core: empty diversity sweep")
	}
	return out, nil
}
