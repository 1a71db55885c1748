package chars

import (
	"errors"
	"fmt"
	"sort"
)

// FeatureScore ranks one feature's power to discriminate a
// clustering.
type FeatureScore struct {
	// Feature is the feature's name.
	Feature string
	// EtaSquared is the fraction of the feature's variance explained
	// by the cluster labels (between-cluster sum of squares over
	// total): 1 means the feature separates the clusters perfectly,
	// 0 means it carries no cluster signal.
	EtaSquared float64
}

// FeatureImportance scores every feature of the table against a
// cluster labelling and returns the scores sorted by descending
// η² — the interpretability companion to the pipeline: *which
// counters* make the SciMark2 kernels a cluster? labels must assign
// each workload a cluster id; constant features score 0.
func FeatureImportance(t *Table, labels []int) ([]FeatureScore, error) {
	if len(labels) != len(t.Rows) {
		return nil, fmt.Errorf("chars: %d labels for %d workloads", len(labels), len(t.Rows))
	}
	if len(t.Rows) == 0 {
		return nil, errors.New("chars: empty table")
	}
	k := 0
	for _, l := range labels {
		if l < 0 {
			return nil, fmt.Errorf("chars: negative label %d", l)
		}
		if l >= k {
			k = l + 1
		}
	}
	counts := make([]float64, k)
	for _, l := range labels {
		counts[l]++
	}
	out := make([]FeatureScore, len(t.Features))
	groupSum := make([]float64, k)
	for j, name := range t.Features {
		var total, mean float64
		for i := range t.Rows {
			mean += t.Rows[i][j]
		}
		mean /= float64(len(t.Rows))
		for g := range groupSum {
			groupSum[g] = 0
		}
		for i := range t.Rows {
			v := t.Rows[i][j]
			d := v - mean
			total += d * d
			groupSum[labels[i]] += v
		}
		between := 0.0
		for g, sum := range groupSum {
			if counts[g] == 0 {
				continue
			}
			gm := sum / counts[g]
			between += counts[g] * (gm - mean) * (gm - mean)
		}
		score := 0.0
		if total > 0 {
			score = between / total
			if score > 1 {
				score = 1 // guard rounding
			}
		}
		out[j] = FeatureScore{Feature: name, EtaSquared: score}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].EtaSquared > out[b].EtaSquared })
	return out, nil
}
