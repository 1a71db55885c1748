package experiments

import (
	"fmt"
	"io"

	"hmeans/internal/cluster"
	"hmeans/internal/viz"
)

// RenderKMeansComparison contrasts the paper's hierarchical
// clustering with the flat k-means baseline the benchmark-subsetting
// literature uses: for each k in the sweep, cluster the SAR-A SOM
// positions both ways and report the Rand agreement plus whether
// k-means also finds the SciMark2 adoption set.
func (s *Suite) RenderKMeansComparison(w io.Writer) error {
	p, err := s.Pipeline(SARMachineA)
	if err != nil {
		return err
	}
	sci := s.sciMark()
	t := viz.NewTable("k", "agreement (hier vs k-means)", "k-means finds SciMark2")
	for k := s.Config.KMin; k <= s.Config.KMax && k <= len(s.Workloads); k++ {
		hier, err := p.Dendrogram.CutK(k)
		if err != nil {
			return err
		}
		km, err := cluster.KMeans(p.Positions, k, uint64(k)*31, 6)
		if err != nil {
			return err
		}
		agree, err := cluster.AgreementRate(hier, km.Assignment)
		if err != nil {
			return err
		}
		if err := t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%.3f", agree),
			yesNo(oneCluster(km.Assignment.Labels, sci))); err != nil {
			return err
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "(both algorithms run on the same SOM positions; the paper's\nconclusion does not hinge on the hierarchical algorithm choice)")
	return err
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
