package experiments

import (
	"fmt"
	"io"

	"hmeans/internal/cluster"
	"hmeans/internal/core"
	"hmeans/internal/viz"
)

// SpeedupRow is one line of Table III.
type SpeedupRow struct {
	Workload string
	A, B     float64
	Ratio    float64
}

// TableIIIResult holds the per-workload speedups and the plain
// geometric means (the paper's baseline score).
type TableIIIResult struct {
	Rows     []SpeedupRow
	GMA, GMB float64
	GMRatio  float64
}

// TableIII computes the measured per-workload speedups on machines A
// and B and their plain geometric means.
func (s *Suite) TableIII() (TableIIIResult, error) {
	var res TableIIIResult
	for i := range s.Workloads {
		res.Rows = append(res.Rows, SpeedupRow{
			Workload: s.Workloads[i].Name,
			A:        s.SpeedupsA[i],
			B:        s.SpeedupsB[i],
			Ratio:    s.SpeedupsA[i] / s.SpeedupsB[i],
		})
	}
	var err error
	if res.GMA, err = core.PlainMean(core.Geometric, s.SpeedupsA); err != nil {
		return res, err
	}
	if res.GMB, err = core.PlainMean(core.Geometric, s.SpeedupsB); err != nil {
		return res, err
	}
	res.GMRatio = res.GMA / res.GMB
	return res, nil
}

// RenderTableIII writes Table III in the paper's layout.
func (s *Suite) RenderTableIII(w io.Writer) error {
	res, err := s.TableIII()
	if err != nil {
		return err
	}
	t := viz.NewTable("", "A", "B", "ratio(=A/B)")
	for _, r := range res.Rows {
		if err := t.AddRowf(r.Workload, "%.2f", r.A, r.B, r.Ratio); err != nil {
			return err
		}
	}
	if err := t.AddRowf("Geometric Mean", "%.2f", res.GMA, res.GMB, res.GMRatio); err != nil {
		return err
	}
	return t.Render(w)
}

// HGMRow is one line of Tables IV-VI: the hierarchical geometric
// means on both machines at one cluster count.
type HGMRow struct {
	K     int
	A, B  float64
	Ratio float64
	// Members lists the workload names per cluster at this cut.
	Members [][]string
}

// HGMTableResult is a full cluster-count sweep plus the plain-GM
// baseline row.
type HGMTableResult struct {
	Characterization Characterization
	Rows             []HGMRow
	GMA, GMB         float64
	GMRatio          float64
}

// HGMTable computes the paper's Table IV (SARMachineA), Table V
// (SARMachineB) or Table VI (MethodBits): the hierarchical geometric
// mean of both machines' scores under the clustering from the given
// characterization, for every k in the configured sweep.
func (s *Suite) HGMTable(ch Characterization) (HGMTableResult, error) {
	p, err := s.Pipeline(ch)
	if err != nil {
		return HGMTableResult{Characterization: ch}, err
	}
	res, err := s.hgmTable(p, s.SpeedupsA, s.SpeedupsB)
	res.Characterization = ch
	return res, err
}

// hgmTable sweeps the hierarchical geometric means of the scores a
// and b (machines A and B) over p's cuts in the configured range, on
// one core.Sweep for both machines. An empty range lists no row.
func (s *Suite) hgmTable(p *core.Pipeline, a, b []float64) (res HGMTableResult, err error) {
	if s.Config.KMin <= s.Config.KMax {
		err = p.Sweep([][]float64{a, b}, s.Config.KMin, s.Config.KMax, func(cut cluster.Assignment, means []core.Means) error {
			hA, hB := means[0][core.Geometric], means[1][core.Geometric]
			members := make([][]string, cut.K)
			for i, l := range cut.Labels {
				members[l] = append(members[l], p.Workloads[i])
			}
			res.Rows = append(res.Rows, HGMRow{K: cut.K, A: hA, B: hB, Ratio: hA / hB, Members: members})
			return nil
		})
		if err != nil {
			return res, err
		}
	}
	if res.GMA, err = core.PlainMean(core.Geometric, a); err != nil {
		return res, err
	}
	if res.GMB, err = core.PlainMean(core.Geometric, b); err != nil {
		return res, err
	}
	res.GMRatio = res.GMA / res.GMB
	return res, nil
}

// RenderHGMTable writes an HGM sweep in the layout of Tables IV-VI.
func (s *Suite) RenderHGMTable(w io.Writer, ch Characterization) error {
	res, err := s.HGMTable(ch)
	if err != nil {
		return err
	}
	return res.render(w)
}

func (res HGMTableResult) render(w io.Writer) error {
	t := viz.NewTable("", "A", "B", "ratio(=A/B)")
	for _, r := range res.Rows {
		if err := t.AddRowf(fmt.Sprintf("%d Clusters", r.K), "%.2f", r.A, r.B, r.Ratio); err != nil {
			return err
		}
	}
	if err := t.AddRowf("Geometric Mean", "%.2f", res.GMA, res.GMB, res.GMRatio); err != nil {
		return err
	}
	return t.Render(w)
}

// SciMarkExclusiveKs returns the cluster counts (within the sweep)
// at which the five SciMark2 workloads form a cluster that is exactly
// themselves — the paper's headline clustering observation.
func (s *Suite) SciMarkExclusiveKs(ch Characterization) ([]int, error) {
	p, err := s.Pipeline(ch)
	if err != nil {
		return nil, err
	}
	return oneClusterKs(p.Dendrogram, s.sciMark(), s.Config.KMin, s.Config.KMax)
}

// sciMark marks the SciMark2 workloads, in workload order: the
// adoption set the paper finds in a cluster of its own.
func (s *Suite) sciMark() []bool {
	set := make([]bool, len(s.Workloads))
	for i := range s.Workloads {
		set[i] = s.Workloads[i].Suite == "SciMark2"
	}
	return set
}

// oneCluster reports whether the workloads marked in set form a
// cluster of their own under labels: every one of them carries the
// same label and no other workload carries it.
func oneCluster(labels []int, set []bool) bool {
	label := -1
	for i, in := range set {
		if in {
			label = labels[i]
			break
		}
	}
	for i, in := range set {
		if in != (labels[i] == label) {
			return false
		}
	}
	return true
}

// oneClusterKs lists, in increasing k, the cuts of d into k in
// [kMin, kMax] at which the workloads marked in set form a cluster of
// their own. An empty range lists nothing.
func oneClusterKs(d *cluster.Dendrogram, set []bool, kMin, kMax int) ([]int, error) {
	if kMin > kMax {
		return nil, nil
	}
	var ks []int
	err := d.EachCut(kMin, kMax, func(cut cluster.Assignment) error {
		if oneCluster(cut.Labels, set) {
			ks = append(ks, cut.K)
		}
		return nil
	})
	return ks, err
}
