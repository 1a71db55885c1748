package experiments

import (
	"fmt"
	"io"

	"hmeans/internal/core"
	"hmeans/internal/simbench"
	"hmeans/internal/som"
	"hmeans/internal/viz"
)

// RenderCPU2006 runs the second case study: a CPU2006-like native
// suite with a planted LZ-codec adoption set, characterized with the
// paper's proposed microarchitecture-independent features, scored on
// machines A and B. It demonstrates that the methodology generalizes
// beyond Java, which the paper asserts but does not evaluate.
func (s *Suite) RenderCPU2006(w io.Writer) error {
	ws := simbench.CPU2006LikeWorkloads()
	ref := simbench.Reference()

	speedA, err := simbench.MeasuredSpeedups(ws, s.A, ref, s.Config.Runs, s.Config.MeasureSeed+100)
	if err != nil {
		return err
	}
	speedB, err := simbench.MeasuredSpeedups(ws, s.B, ref, s.Config.Runs, s.Config.MeasureSeed+101)
	if err != nil {
		return err
	}

	tab, err := simbench.MicroIndepTable(ws)
	if err != nil {
		return err
	}
	p, err := core.DetectClusters(tab, core.PipelineConfig{SOM: som.Config{Seed: s.Config.SOMSeed}})
	if err != nil {
		return err
	}
	res, err := s.hgmTable(p, speedA, speedB)
	if err != nil {
		return err
	}
	// The planted redundancy verdict sweeps k = 2..9, whatever the
	// configured range.
	codecs := make([]bool, len(ws))
	for i := range ws {
		switch ws[i].Name {
		case "int.lzA", "int.lzB", "int.lzC":
			codecs[i] = true
		}
	}
	lz, err := oneClusterKs(p.Dendrogram, codecs, 2, 9)
	if err != nil {
		return err
	}

	if _, err := fmt.Fprintf(w, "%d native workloads, micro-independent characterization\n\n", len(ws)); err != nil {
		return err
	}
	if err := viz.SOMMap(w, p.Map, p.Workloads, p.Prepared.Vectors()); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if err := res.render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\nLZ-codec adoption set {lzA lzB lzC} exclusive at k=%v — the\nmethodology flags planted redundancy in a non-Java suite too.\n", lz)
	return err
}
