package experiments

import (
	"fmt"
	"io"

	"hmeans/internal/cluster"
	"hmeans/internal/pca"
	"hmeans/internal/vecmath"
	"hmeans/internal/viz"
)

// LinkageComparison reports, per linkage rule, whether the SciMark2
// adoption set comes out exclusive and how much the clustering agrees
// with the paper's complete-linkage choice.
type LinkageComparison struct {
	Linkage cluster.Linkage
	// SciExclusiveKs lists the cuts where SciMark2 is exclusive.
	SciExclusiveKs []int
	// AgreementAtK6 is the Rand agreement with complete linkage at
	// k=6.
	AgreementAtK6 float64
}

// CompareLinkages re-clusters the SAR-A SOM positions under every
// linkage rule. The paper fixes complete linkage without discussion;
// this shows how sensitive its conclusions are to that choice.
func (s *Suite) CompareLinkages() ([]LinkageComparison, error) {
	p, err := s.Pipeline(SARMachineA)
	if err != nil {
		return nil, err
	}
	ref, err := p.Dendrogram.CutK(6)
	if err != nil {
		return nil, err
	}
	sci := s.sciMark()
	var out []LinkageComparison
	for _, l := range []cluster.Linkage{cluster.Complete, cluster.Single, cluster.Average, cluster.Ward} {
		d, err := cluster.NewDendrogramOpts(p.Positions, vecmath.Euclidean, l, cluster.Options{})
		if err != nil {
			return nil, err
		}
		a, err := d.CutK(6)
		if err != nil {
			return nil, err
		}
		agree, err := cluster.AgreementRate(ref, a)
		if err != nil {
			return nil, err
		}
		ks, err := oneClusterKs(d, sci, s.Config.KMin, s.Config.KMax)
		if err != nil {
			return nil, err
		}
		out = append(out, LinkageComparison{Linkage: l, SciExclusiveKs: ks, AgreementAtK6: agree})
	}
	return out, nil
}

// RenderLinkages writes the linkage-sensitivity table.
func (s *Suite) RenderLinkages(w io.Writer) error {
	res, err := s.CompareLinkages()
	if err != nil {
		return err
	}
	t := viz.NewTable("linkage", "SciMark2 exclusive at k", "agreement with complete @k=6")
	for _, r := range res {
		t2 := fmt.Sprintf("%v", r.SciExclusiveKs)
		if len(r.SciExclusiveKs) == 0 {
			t2 = "never"
		}
		if err := t.AddRow(r.Linkage.String(), t2, fmt.Sprintf("%.3f", r.AgreementAtK6)); err != nil {
			return err
		}
	}
	return t.Render(w)
}

// ReductionComparison contrasts dimension-reduction stages on the
// method-utilization bit vectors — the characterization for which the
// paper argues SOM's non-linear mapping beats PCA ("SOM shows robust
// behavior over PCA approach, for this type of discrete data shows
// high nonlinearity").
type ReductionComparison struct {
	Name string
	// SciExclusiveKs lists the cuts where SciMark2 is exclusive.
	SciExclusiveKs []int
	// SciMaxPairwise is the largest pairwise distance between
	// SciMark2 members in the reduced space, normalized by the mean
	// pairwise distance over the whole suite (0 = they coincide).
	SciMaxPairwise float64
}

// CompareReductions clusters the preprocessed method-bit vectors
// after (a) the paper's SOM, (b) PCA to 2 components, (c) no
// reduction at all.
func (s *Suite) CompareReductions() ([]ReductionComparison, error) {
	p, err := s.Pipeline(MethodBits)
	if err != nil {
		return nil, err
	}
	vectors := p.Prepared.Vectors()
	rows := make([][]float64, len(vectors))
	for i, v := range vectors {
		rows[i] = v
	}
	pcaScores, _, err := pca.FitTransform(rows, 2)
	if err != nil {
		return nil, err
	}
	pcaPoints := make([]vecmath.Vector, len(pcaScores))
	for i, sc := range pcaScores {
		pcaPoints[i] = sc
	}
	variants := []struct {
		name   string
		points []vecmath.Vector
	}{
		{"som", p.Positions},
		{"pca2", pcaPoints},
		{"raw", vectors},
	}
	sci := s.sciMark()
	var out []ReductionComparison
	for _, v := range variants {
		d, err := cluster.NewDendrogramOpts(v.points, vecmath.Euclidean, cluster.Complete, cluster.Options{})
		if err != nil {
			return nil, err
		}
		ks, err := oneClusterKs(d, sci, s.Config.KMin, s.Config.KMax)
		if err != nil {
			return nil, err
		}
		out = append(out, ReductionComparison{Name: v.name, SciExclusiveKs: ks, SciMaxPairwise: sciSpread(v.points, sci)})
	}
	return out, nil
}

// sciSpread returns max pairwise distance among SciMark members over
// the mean pairwise distance of the whole suite.
func sciSpread(points []vecmath.Vector, sci []bool) float64 {
	var sciMax float64
	var total float64
	var pairs int
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			d := vecmath.EuclideanDistance(points[i], points[j])
			total += d
			pairs++
			if sci[i] && sci[j] && d > sciMax {
				sciMax = d
			}
		}
	}
	if pairs == 0 || total == 0 {
		return 0
	}
	return sciMax / (total / float64(pairs))
}

// RenderReductions writes the SOM-vs-PCA comparison.
func (s *Suite) RenderReductions(w io.Writer) error {
	res, err := s.CompareReductions()
	if err != nil {
		return err
	}
	t := viz.NewTable("reduction", "SciMark2 exclusive at k", "SciMark2 spread (rel.)")
	for _, r := range res {
		ks := fmt.Sprintf("%v", r.SciExclusiveKs)
		if len(r.SciExclusiveKs) == 0 {
			ks = "never"
		}
		if err := t.AddRow(r.Name, ks, fmt.Sprintf("%.3f", r.SciMaxPairwise)); err != nil {
			return err
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "(method-utilization bit vectors; spread 0 = the five kernels coincide)")
	return err
}
