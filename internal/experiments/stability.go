package experiments

import (
	"fmt"
	"io"

	"hmeans/internal/cluster"
	"hmeans/internal/core"
	"hmeans/internal/som"
	"hmeans/internal/stat"
	"hmeans/internal/viz"
)

// StabilityResult quantifies how sensitive the pipeline's conclusions
// are to the SOM training seed — the reproducibility concern the
// paper leaves implicit (it reports one training run per machine).
type StabilityResult struct {
	Characterization Characterization
	Seeds            int
	// ExclusiveRate is the fraction of seeds whose clustering makes
	// SciMark2 exclusive at some k in the sweep.
	ExclusiveRate float64
	// MeanAgreement is the mean pairwise Rand agreement between the
	// k=6 clusterings across seeds.
	MeanAgreement float64
	// RatioAtK6 collects the HGM A/B ratio at k=6 per seed.
	RatioAtK6 []float64
	// RatioSpread is max − min of RatioAtK6.
	RatioSpread float64
}

// Stability re-runs the cluster-detection stage of the given
// characterization with `seeds` different SOM seeds and measures how
// stable the paper's conclusions are across them. The measurement
// campaign (speedups) is shared; only SOM training varies.
func (s *Suite) Stability(ch Characterization, seeds int) (StabilityResult, error) {
	res := StabilityResult{Characterization: ch, Seeds: seeds}
	if seeds < 2 {
		return res, fmt.Errorf("experiments: stability needs at least 2 seeds")
	}
	tab, kind, err := s.table(ch)
	if err != nil {
		return res, err
	}
	sci := s.sciMark()
	var (
		assignments []cluster.Assignment
		exclusive   int
	)
	for seed := 0; seed < seeds; seed++ {
		p, err := core.DetectClusters(tab, core.PipelineConfig{Kind: kind, SOM: som.Config{Seed: uint64(seed) + 1}})
		if err != nil {
			return res, err
		}
		ks, err := oneClusterKs(p.Dendrogram, sci, s.Config.KMin, s.Config.KMax)
		if err != nil {
			return res, err
		}
		if len(ks) > 0 {
			exclusive++
		}
		a, err := p.Dendrogram.CutK(6)
		if err != nil {
			return res, err
		}
		assignments = append(assignments, a)
		c := core.Clustering{Labels: a.Labels, K: a.K}
		hA, err := core.HierarchicalMean(core.Geometric, s.SpeedupsA, c)
		if err != nil {
			return res, err
		}
		hB, err := core.HierarchicalMean(core.Geometric, s.SpeedupsB, c)
		if err != nil {
			return res, err
		}
		res.RatioAtK6 = append(res.RatioAtK6, hA/hB)
	}
	res.ExclusiveRate = float64(exclusive) / float64(seeds)
	var agreeSum float64
	var pairs int
	for i := range assignments {
		for j := i + 1; j < len(assignments); j++ {
			r, err := cluster.AgreementRate(assignments[i], assignments[j])
			if err != nil {
				return res, err
			}
			agreeSum += r
			pairs++
		}
	}
	if pairs > 0 {
		res.MeanAgreement = agreeSum / float64(pairs)
	}
	lo, err := stat.Min(res.RatioAtK6)
	if err != nil {
		return res, err
	}
	hi, _ := stat.Max(res.RatioAtK6)
	res.RatioSpread = hi - lo
	return res, nil
}

// RenderStability writes the cross-seed stability report for all
// three paper characterizations.
func (s *Suite) RenderStability(w io.Writer, seeds int) error {
	t := viz.NewTable("characterization", "exclusive rate", "k=6 agreement", "ratio spread")
	for _, ch := range []Characterization{SARMachineA, SARMachineB, MethodBits} {
		res, err := s.Stability(ch, seeds)
		if err != nil {
			return err
		}
		if err := t.AddRow(string(ch),
			fmt.Sprintf("%.0f%%", 100*res.ExclusiveRate),
			fmt.Sprintf("%.3f", res.MeanAgreement),
			fmt.Sprintf("%.3f", res.RatioSpread)); err != nil {
			return err
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "(%d SOM seeds per characterization; sweep k=%d..%d)\n",
		seeds, s.Config.KMin, s.Config.KMax)
	return err
}
