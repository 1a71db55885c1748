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
	kMin, kMax, err := p.candidates(kMin, kMax)
	if err != nil {
		return rec, err
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

// candidates clamps a recommendation range to [2, n] and rejects an
// empty one.
func (p *Pipeline) candidates(kMin, kMax int) (int, int, error) {
	kMin, kMax = max(kMin, 2), min(kMax, p.Dendrogram.Len())
	if kMin > kMax {
		return 0, 0, fmt.Errorf("core: empty recommendation range [%d, %d]", kMin, kMax)
	}
	return kMin, kMax, nil
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
// [kMin-1, kMax+1] within [1, n]. One Sweep yields them all, with no
// per-k cut or means spans; RankK then decides.
func (p *Pipeline) RecommendK(kind MeanKind, scoresA, scoresB []float64, kMin, kMax int) (KRecommendation, error) {
	var rec KRecommendation
	if err := kind.check(); err != nil {
		return rec, err
	}
	kMin, kMax, err := p.candidates(kMin, kMax)
	if err != nil {
		return rec, err
	}
	if scoresA, err = p.AlignScores(scoresA); err != nil {
		return rec, err
	}
	if scoresB, err = p.AlignScores(scoresB); err != nil {
		return rec, err
	}
	ratio := make([]float64, p.Dendrogram.Len()+1)
	err = p.Sweep([][]float64{scoresA, scoresB}, kMin-1, kMax+1, func(cut cluster.Assignment, means []Means) error {
		b := means[1][kind]
		if b <= 0 {
			return errors.New("core: non-positive score ratio denominator")
		}
		ratio[cut.K] = means[0][kind] / b
		return nil
	})
	if err != nil {
		return rec, err
	}
	return p.RankK(ratio, kMin, kMax)
}

// RankK is RecommendK's decision, made from ratios already swept:
// ratio[k] is the A/B score ratio at the k-cluster cut for every k in
// [kMin-1, kMax+1] within [1, n], after kMin and kMax are clamped to
// [2, n]. It runs one QualitySweep over the candidates and damps the
// ratio: a candidate's damping is the mean absolute change of the
// ratio from k to k−1 and to k+1. It then ranks candidates by
// silhouette and breaks near-ties (within tol of the best silhouette)
// toward the smallest damping, and toward the smaller k on equal
// damping. The service reads the ratio off the Sweep that fills its
// response, so a miss makes one walk of the cuts for means.
func (p *Pipeline) RankK(ratio []float64, kMin, kMax int) (KRecommendation, error) {
	var rec KRecommendation
	kMin, kMax, err := p.candidates(kMin, kMax)
	if err != nil {
		return rec, err
	}
	hi := min(kMax+1, p.Dendrogram.Len())
	if len(ratio) <= hi {
		return rec, fmt.Errorf("core: %d ratios for cluster counts up to %d", len(ratio), hi)
	}
	sp := p.obs.StartSpan("kselect", obs.KV("k_min", kMin), obs.KV("k_max", kMax))
	defer sp.End()
	quality, err := p.Dendrogram.QualitySweep(p.Positions, kMin, kMax)
	if err != nil {
		return rec, err
	}
	rec.Quality = quality
	rec.RatioDamping = make(map[int]float64)
	for k := kMin; k <= kMax; k++ {
		damp, terms := math.Abs(ratio[k]-ratio[k-1]), 1.0
		if k < hi {
			damp += math.Abs(ratio[k] - ratio[k+1])
			terms++
		}
		rec.RatioDamping[k] = damp / terms
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
		if d := rec.RatioDamping[q.K]; d < bestDamp {
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
