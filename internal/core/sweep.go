package core

import "hmeans/internal/cluster"

// Means holds one score vector's hierarchical means under one cut,
// indexed by MeanKind: m[Geometric] is its HGM, m[Arithmetic] its HAM
// and m[Harmonic] its HHM.
type Means [3]float64

// Sweep is the module's one accumulation of hierarchical means over
// k, the table the paper reads its scores from (Tables IV–VI). For
// every k in [kMin, kMax], clamped to [1, n], in increasing k, it
// calls fn with the cut of the dendrogram into k clusters and
// means[v], the three hierarchical means of vectors[v] under that cut.
// It walks the cuts once (cluster.Dendrogram.EachCut) and re-plans one
// Scorer per cut, so every value equals HierarchicalMean over CutK(k)
// bit for bit, and nothing is allocated per k. Each vector must hold
// one score per workload (AlignScores), positive and finite as all
// three families need. fn must neither modify nor keep the labels or
// the means: the next k overwrites both. An inverted range is a typed
// cluster.ErrDegenerateCut; the first error stops the sweep.
func (p *Pipeline) Sweep(vectors [][]float64, kMin, kMax int, fn func(cut cluster.Assignment, means []Means) error) error {
	// The per-cut buffers are sized for k = n up front, so Reset never
	// grows them as k rises.
	n := p.Dendrogram.Len()
	sc := &Scorer{offsets: make([]int, 0, n+1), cur: make([]int, 0, n), reps: make([]float64, 0, n)}
	means := make([]Means, len(vectors))
	return p.Dendrogram.EachCut(kMin, kMax, func(cut cluster.Assignment) error {
		if err := sc.Reset(Clustering{Labels: cut.Labels, K: cut.K}); err != nil {
			return err
		}
		for v, scores := range vectors {
			for kind := range means[v] {
				m, err := sc.Mean(MeanKind(kind), scores)
				if err != nil {
					return err
				}
				means[v][kind] = m
			}
		}
		return fn(cut, means)
	})
}
