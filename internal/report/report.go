// Package report assembles a complete, self-contained benchmark
// scoring report: per-workload scores with confidence intervals, the
// detected cluster structure, the hierarchical-mean sweep, a
// recommended cluster count, and the redundancy diagnosis. It is the
// "what a consortium would actually publish" layer on top of the
// scoring and clustering machinery.
package report

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"hmeans/internal/core"
	"hmeans/internal/stat"
	"hmeans/internal/viz"
)

// Input bundles everything a report needs.
type Input struct {
	// Title heads the report.
	Title string
	// Workloads names the suite members, aligned with Scores.
	Workloads []string
	// Scores holds one score per workload (e.g. speedup over a
	// reference machine).
	Scores []float64
	// RunTimes optionally holds the per-run raw measurements behind
	// each score (RunTimes[i] are workload i's run times); when
	// present, per-workload bootstrap intervals are reported.
	RunTimes [][]float64
	// Pipeline is the completed cluster detection for the suite.
	Pipeline *core.Pipeline
	// Kind is the mean family to report (default Geometric).
	Kind core.MeanKind
	// KMin and KMax bound the sweep (defaults 2 and n).
	KMin, KMax int
	// ConfidenceLevel for the bootstrap intervals (default 0.95).
	ConfidenceLevel float64
	// Seed drives the bootstrap resampling.
	Seed uint64
}

func (in *Input) validate() error {
	if len(in.Workloads) == 0 {
		return errors.New("report: no workloads")
	}
	if len(in.Scores) != len(in.Workloads) {
		return fmt.Errorf("report: %d scores for %d workloads", len(in.Scores), len(in.Workloads))
	}
	if in.RunTimes != nil && len(in.RunTimes) != len(in.Workloads) {
		return fmt.Errorf("report: %d run-time series for %d workloads", len(in.RunTimes), len(in.Workloads))
	}
	if in.Pipeline == nil {
		return errors.New("report: nil pipeline")
	}
	if in.Pipeline.Dendrogram.Len() != len(in.Workloads) {
		return errors.New("report: pipeline does not match the workload list")
	}
	return nil
}

func (in *Input) withDefaults() Input {
	out := *in
	if out.KMin == 0 {
		out.KMin = 2
	}
	if out.KMax == 0 {
		out.KMax = len(out.Workloads)
	}
	if out.ConfidenceLevel == 0 {
		out.ConfidenceLevel = 0.95
	}
	if out.Title == "" {
		out.Title = "Benchmark suite scoring report"
	}
	return out
}

// Write renders the full report.
func Write(w io.Writer, input Input) error {
	if err := input.validate(); err != nil {
		return err
	}
	in := input.withDefaults()

	if _, err := fmt.Fprintf(w, "%s\n%s\n\n", in.Title, strings.Repeat("=", len(in.Title))); err != nil {
		return err
	}
	if err := writeScores(w, &in); err != nil {
		return err
	}
	if err := writeClusters(w, &in); err != nil {
		return err
	}
	return writeSweep(w, &in)
}

func writeScores(w io.Writer, in *Input) error {
	if _, err := fmt.Fprintln(w, "Per-workload scores"); err != nil {
		return err
	}
	t := viz.NewTable("workload", "score", "95% CI")
	for i, name := range in.Workloads {
		ci := ""
		if in.RunTimes != nil && len(in.RunTimes[i]) >= 2 {
			iv, err := stat.BootstrapCI(in.RunTimes[i], in.ConfidenceLevel, 400, in.Seed+uint64(i), stat.ArithmeticMean)
			if err == nil {
				ci = fmt.Sprintf("[%.3f, %.3f]s", iv.Lo, iv.Hi)
			}
		}
		if err := t.AddRow(name, fmt.Sprintf("%.3f", in.Scores[i]), ci); err != nil {
			return err
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

func writeClusters(w io.Writer, in *Input) error {
	rec, err := in.Pipeline.RecommendK(in.Kind, in.Scores, in.Scores, in.KMin, in.KMax)
	if err != nil {
		// Self-comparison recommendation can fail on degenerate
		// sweeps; fall back to the midpoint.
		rec.K = (in.KMin + in.KMax) / 2
	}
	if _, err := fmt.Fprintf(w, "Cluster structure (recommended cut: k=%d)\n", rec.K); err != nil {
		return err
	}
	members, err := in.Pipeline.ClusterMembers(rec.K)
	if err != nil {
		return err
	}
	for label, ms := range members {
		marker := ""
		if len(ms) > 1 {
			marker = "   <- redundancy group"
		}
		if _, err := fmt.Fprintf(w, "  cluster %d: %s%s\n", label, strings.Join(ms, ", "), marker); err != nil {
			return err
		}
	}
	// Robustness of the score to a plausible clustering mistake.
	if c, err := in.Pipeline.ClusteringAtK(rec.K); err == nil && c.K >= 2 {
		if sens, err := core.ClusteringSensitivity(in.Kind, in.Scores, c); err == nil {
			if _, err := fmt.Fprintf(w,
				"  robustness: worst single-workload reassignment shifts the score by %.3f (%.1f%%)\n",
				sens.MaxAbsShift, 100*sens.MaxAbsShift/sens.Base); err != nil {
				return err
			}
		}
	}
	if len(rec.Quality) > 0 {
		if _, err := fmt.Fprintln(w, "\n  cut diagnostics:"); err != nil {
			return err
		}
		qt := viz.NewTable("  k", "silhouette", "Davies-Bouldin", "merge gap")
		qs := rec.Quality
		sort.Slice(qs, func(a, b int) bool { return qs[a].K < qs[b].K })
		for _, q := range qs {
			if err := qt.AddRowf(fmt.Sprintf("  %d", q.K), "%.3f", q.Silhouette, q.DaviesBouldin, q.MergeGap); err != nil {
				return err
			}
		}
		if err := qt.Render(w); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintln(w)
	return err
}

func writeSweep(w io.Writer, in *Input) error {
	plain, err := core.PlainMean(in.Kind, in.Scores)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "Suite scores (%s mean family)\n", in.Kind); err != nil {
		return err
	}
	t := viz.NewTable("clusters", "hierarchical", "vs plain")
	kMin, kMax := max(in.KMin, 1), min(in.KMax, len(in.Workloads))
	var sweep map[int]float64
	if kMin <= kMax {
		if sweep, err = in.Pipeline.ScoreSweep(in.Kind, in.Scores, kMin, kMax); err != nil {
			return err
		}
	}
	for k := kMin; k <= kMax; k++ {
		h := sweep[k]
		if err := t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%.3f", h),
			fmt.Sprintf("%+.1f%%", 100*(h/plain-1))); err != nil {
			return err
		}
	}
	if err := t.AddRow("plain", fmt.Sprintf("%.3f", plain), ""); err != nil {
		return err
	}
	return t.Render(w)
}
