package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
)

// Experiment is a named, runnable reproduction of one paper artifact.
type Experiment struct {
	// ID is the short name used by the CLI (e.g. "tableIV", "fig3").
	ID string
	// Title describes the artifact.
	Title string
	// Run renders the artifact.
	Run func(s *Suite, w io.Writer) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"tableI", "Table I: constructed benchmark suite",
			func(s *Suite, w io.Writer) error { return s.RenderTableI(w) }},
		{"tableII", "Table II: hardware settings",
			func(s *Suite, w io.Writer) error { return s.RenderTableII(w) }},
		{"tableIII", "Table III: relative workload speedup on machines A and B",
			func(s *Suite, w io.Writer) error { return s.RenderTableIII(w) }},
		{"fig3", "Figure 3: workload distribution on machine A (SAR counters)",
			func(s *Suite, w io.Writer) error { return s.RenderFigureMap(w, SARMachineA) }},
		{"fig4", "Figure 4: clustering results on machine A",
			func(s *Suite, w io.Writer) error { return s.RenderFigureDendrogram(w, SARMachineA) }},
		{"tableIV", "Table IV: HGM based on clustering results from machine A",
			func(s *Suite, w io.Writer) error { return s.RenderHGMTable(w, SARMachineA) }},
		{"fig5", "Figure 5: workload distribution on machine B (SAR counters)",
			func(s *Suite, w io.Writer) error { return s.RenderFigureMap(w, SARMachineB) }},
		{"fig6", "Figure 6: clustering results on machine B",
			func(s *Suite, w io.Writer) error { return s.RenderFigureDendrogram(w, SARMachineB) }},
		{"tableV", "Table V: HGM based on clustering results from machine B",
			func(s *Suite, w io.Writer) error { return s.RenderHGMTable(w, SARMachineB) }},
		{"fig7", "Figure 7: workload distribution (Java method utilization)",
			func(s *Suite, w io.Writer) error { return s.RenderFigureMap(w, MethodBits) }},
		{"fig8", "Figure 8: clustering results (Java method utilization)",
			func(s *Suite, w io.Writer) error { return s.RenderFigureDendrogram(w, MethodBits) }},
		{"tableVI", "Table VI: HGM based on Java method utilization",
			func(s *Suite, w io.Writer) error { return s.RenderHGMTable(w, MethodBits) }},
		{"calibration", "Execution-model calibration report (not in paper)",
			func(s *Suite, w io.Writer) error { return s.RenderCalibration(w) }},
		{"ext-confidence", "Extension: workload-sampling confidence intervals for the A/B ratio",
			func(s *Suite, w io.Writer) error { return s.RenderConfidence(w) }},
		{"ext-sensitivity", "Extension: robustness of the HGM to single-workload cluster reassignments",
			func(s *Suite, w io.Writer) error { return s.RenderSensitivity(w) }},
		{"ext-linkage", "Extension: sensitivity of the clustering conclusions to the linkage rule",
			func(s *Suite, w io.Writer) error { return s.RenderLinkages(w) }},
		{"ext-reduction", "Extension: SOM vs PCA(2) vs raw vectors on the method-bit characterization (Section VI's argument)",
			func(s *Suite, w io.Writer) error { return s.RenderReductions(w) }},
		{"ext-phases", "Extension: does the paper's flat sample-averaging lose clustering signal vs phase-resolved characterization?",
			func(s *Suite, w io.Writer) error { return s.RenderPhased(w) }},
		{"ext-subjectivity", "Extension: how far negotiated weights can move the score vs the derived weights",
			func(s *Suite, w io.Writer) error { return s.RenderSubjectivity(w) }},
		{"ext-stability", "Extension: cross-seed stability of the clustering conclusions",
			func(s *Suite, w io.Writer) error { return s.RenderStability(w, 6) }},
		{"ext-kmeans", "Extension: flat k-means baseline vs the paper's hierarchical clustering",
			func(s *Suite, w io.Writer) error { return s.RenderKMeansComparison(w) }},
		{"ext-nested", "Extension: multi-level nested hierarchical means (families of clusters)",
			func(s *Suite, w io.Writer) error { return s.RenderNested(w) }},
		{"ext-features", "Extension: which counters discriminate the clusters (eta-squared ranking)",
			func(s *Suite, w io.Writer) error { return s.RenderFeatureImportance(w) }},
		{"ext-cpu2006", "Extension: second case study — a CPU2006-like native suite with a planted codec adoption set",
			func(s *Suite, w io.Writer) error { return s.RenderCPU2006(w) }},
		{"ext-microindep", "Extension: HGM with microarchitecture-independent clustering (paper Section V-C future work)",
			func(s *Suite, w io.Writer) error {
				if err := s.RenderFigureMap(w, MicroIndep); err != nil {
					return err
				}
				if _, err := fmt.Fprintln(w); err != nil {
					return err
				}
				return s.RenderHGMTable(w, MicroIndep)
			}},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs, sorted.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// RunAllCtx renders every experiment with headers, with cooperative
// cancellation between experiments: a fired context stops the
// sequence at the next experiment boundary with a wrapped context
// error.
func RunAllCtx(ctx context.Context, s *Suite, w io.Writer) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, e := range All() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("experiments: cancelled before %s: %w", e.ID, err)
		}
		if _, err := fmt.Fprintf(w, "=== %s — %s ===\n", e.ID, e.Title); err != nil {
			return err
		}
		if err := e.Run(s, w); err != nil {
			return fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
