package core

import (
	"errors"
	"fmt"
	"math"

	"hmeans/internal/cluster"
	"hmeans/internal/obs"
)

// KRecommendation explains a recommended cluster count.
type KRecommendation struct {
	// K is the recommended cluster count.
	K int
	// Quality holds the geometric diagnostics of every candidate.
	Quality []cluster.KQuality
	// RatioDamping[k] is the paper's score-stability signal: the
	// mean absolute change of the A/B score ratio between k−1, k and
	// k+1 (lower = the ratio has "dampened" around this k).
	RatioDamping map[int]float64
}

// RecommendKQuality picks a cluster count on geometry alone: the
// silhouette/Davies–Bouldin sweep of cluster.RecommendK over the
// pipeline's reduced positions, without the paper's ratio-damping
// signal. It is the recommendation used when only one machine's
// scores (or none) are available, so no A/B ratio exists to dampen;
// with two score vectors, prefer RecommendK.
func (p *Pipeline) RecommendKQuality(kMin, kMax int) (KRecommendation, error) {
	var rec KRecommendation
	if kMin < 2 {
		kMin = 2
	}
	if n := p.Dendrogram.Len(); kMax > n {
		kMax = n
	}
	if kMin > kMax {
		return rec, fmt.Errorf("core: empty recommendation range [%d, %d]", kMin, kMax)
	}
	sp := p.obs.StartSpan("kselect", obs.KV("k_min", kMin), obs.KV("k_max", kMax),
		obs.KV("quality_only", true))
	defer sp.End()
	quality, err := p.Dendrogram.QualitySweep(p.Positions, kMin, kMax)
	if err != nil {
		return rec, err
	}
	rec.Quality = quality
	k, err := cluster.RecommendK(quality)
	if err != nil {
		return rec, err
	}
	rec.K = k
	if o := p.obs; o.Active() {
		o.Metrics().Gauge("kselect.k").Set(float64(k))
	}
	return rec, nil
}

// RecommendK mechanizes the paper's Section V-B.1 judgment: pick the
// cluster count where (1) the clustering is geometrically sound
// (silhouette on the reduced positions) and (2) "the fluctuation of
// ratio values tends to dampen". scoresA and scoresB are the two
// machines' per-workload scores, aligned with AlignScores; the
// candidates are [kMin, kMax] clamped to [2, n].
//
// The ratio at k is the hierarchical mean of kind over scoresA divided
// by the one over scoresB, as ScoreAtK computes them, for every k in
// [kMin-1, kMax+1] within [1, n]; one walk of the dendrogram's cuts
// (cluster.Dendrogram.EachCut) with one Scorer yields them all, with no
// per-k cut or means spans. The geometry comes from one QualitySweep.
//
// The combined criterion ranks candidates by silhouette and breaks
// near-ties (within tol of the best silhouette) toward the smallest
// ratio damping, and toward the smaller k on equal damping.
func (p *Pipeline) RecommendK(kind MeanKind, scoresA, scoresB []float64, kMin, kMax int) (KRecommendation, error) {
	var rec KRecommendation
	if kMin < 2 {
		kMin = 2
	}
	n := p.Dendrogram.Len()
	if kMax > n {
		kMax = n
	}
	if kMin > kMax {
		return rec, fmt.Errorf("core: empty recommendation range [%d, %d]", kMin, kMax)
	}
	sp := p.obs.StartSpan("kselect", obs.KV("k_min", kMin), obs.KV("k_max", kMax))
	defer sp.End()
	quality, err := p.Dendrogram.QualitySweep(p.Positions, kMin, kMax)
	if err != nil {
		return rec, err
	}
	rec.Quality = quality

	// Ratio per k over the extended range [kMin-1, kMax+1] so the
	// damping of edge candidates is well defined. One walk of the
	// dendrogram and one Scorer serve every k; the means equal
	// ScoreAtK's bit for bit.
	lo, hi := kMin-1, kMax+1
	if lo < 1 {
		lo = 1
	}
	if hi > n {
		hi = n
	}
	if scoresA, err = p.AlignScores(scoresA); err != nil {
		return rec, err
	}
	if scoresB, err = p.AlignScores(scoresB); err != nil {
		return rec, err
	}
	ratio := make([]float64, hi-lo+1)
	var sc Scorer
	err = p.Dendrogram.EachCut(lo, hi, func(cut cluster.Assignment) error {
		if err := sc.Reset(Clustering{Labels: cut.Labels, K: cut.K}); err != nil {
			return err
		}
		a, err := sc.Mean(kind, scoresA)
		if err != nil {
			return err
		}
		b, err := sc.Mean(kind, scoresB)
		if err != nil {
			return err
		}
		if b <= 0 {
			return errors.New("core: non-positive score ratio denominator")
		}
		ratio[cut.K-lo] = a / b
		return nil
	})
	if err != nil {
		return rec, err
	}
	rec.RatioDamping = make(map[int]float64)
	for k := kMin; k <= kMax; k++ {
		var sum float64
		var terms int
		r := ratio[k-lo]
		if k-1 >= lo {
			sum += math.Abs(r - ratio[k-1-lo])
			terms++
		}
		if k+1 <= hi {
			sum += math.Abs(r - ratio[k+1-lo])
			terms++
		}
		if terms > 0 {
			rec.RatioDamping[k] = sum / float64(terms)
		}
	}

	// Rank: silhouette first; within tol of the best, least damping.
	const tol = 0.05
	bestSil := math.Inf(-1)
	for _, q := range quality {
		if q.Silhouette > bestSil {
			bestSil = q.Silhouette
		}
	}
	bestK, bestDamp := 0, math.Inf(1)
	for _, q := range quality {
		if q.Silhouette < bestSil-tol {
			continue
		}
		d, ok := rec.RatioDamping[q.K]
		if !ok {
			d = math.Inf(1)
		}
		if d < bestDamp {
			bestK, bestDamp = q.K, d
		}
	}
	if bestK == 0 {
		bestK = quality[0].K
	}
	rec.K = bestK
	if o := p.obs; o.Active() {
		// One event per candidate plus the chosen k as gauges, so
		// traces show both the sweep and the decision.
		for _, q := range quality {
			sp.Event("kselect.candidate", obs.KV("k", q.K),
				obs.KV("silhouette", q.Silhouette), obs.KV("damping", rec.RatioDamping[q.K]))
		}
		reg := o.Metrics()
		reg.Gauge("kselect.k").Set(float64(bestK))
		reg.Gauge("kselect.best_silhouette").Set(bestSil)
	}
	return rec, nil
}
