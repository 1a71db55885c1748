// Package experiments regenerates every table and figure of the
// paper's evaluation (Section V) from the simulated substrate:
//
//	Table I    — suite composition
//	Table II   — machine settings
//	Table III  — per-workload speedups and the plain geometric mean
//	Figure 3/5 — SOM workload distribution from SAR counters (A, B)
//	Figure 4/6 — dendrograms of the SAR clusterings (A, B)
//	Table IV/V — HGM sweeps over the SAR clusterings (A, B)
//	Figure 7/8 — SOM map and dendrogram from Java method utilization
//	Table VI   — HGM sweep over the method-utilization clustering
//
// A Suite assembles the calibrated workloads, measures the speedups
// (10 noisy runs per workload per machine, averaged, as in the
// paper), and lazily builds the three characterization pipelines.
// Everything is deterministic given the Config seeds.
package experiments

import (
	"fmt"
	"io"

	"hmeans/internal/chars"
	"hmeans/internal/core"
	"hmeans/internal/simbench"
	"hmeans/internal/som"
	"hmeans/internal/viz"
)

// Config seeds and sizes an experiment campaign.
type Config struct {
	// Runs is the number of executions averaged per measurement
	// (paper: 10). Zero means 10.
	Runs int
	// MeasureSeed drives run-to-run measurement noise.
	MeasureSeed uint64
	// SARSeed drives the SAR sampling noise.
	SARSeed uint64
	// SOMSeed drives SOM training.
	SOMSeed uint64
	// KMin and KMax bound the cluster-count sweep (paper: 2..8).
	// Zeros mean the paper's bounds.
	KMin, KMax int
}

func (c Config) withDefaults() Config {
	if c.Runs <= 0 {
		c.Runs = 10
	}
	if c.MeasureSeed == 0 {
		c.MeasureSeed = 1
	}
	if c.SARSeed == 0 {
		c.SARSeed = 1
	}
	if c.SOMSeed == 0 {
		c.SOMSeed = 2007
	}
	if c.KMin == 0 {
		c.KMin = 2
	}
	if c.KMax == 0 {
		c.KMax = 8
	}
	return c
}

// Suite is an assembled experiment campaign over the hypothetical
// SPECjvm2007-like benchmark.
type Suite struct {
	Config      Config
	Workloads   []simbench.Workload
	Calibration simbench.CalibrationResult
	A, B, Ref   simbench.Machine
	// SpeedupsA and SpeedupsB are the measured (noisy, averaged)
	// speedups over the reference machine, in workload order.
	SpeedupsA, SpeedupsB []float64

	pipelines map[string]*core.Pipeline
}

// NewSuite calibrates the workloads and runs the measurement
// campaign.
func NewSuite(cfg Config) (*Suite, error) {
	cfg = cfg.withDefaults()
	ws, cal, err := simbench.CalibratedSuite()
	if err != nil {
		return nil, fmt.Errorf("experiments: calibration: %w", err)
	}
	s := &Suite{
		Config:      cfg,
		Workloads:   ws,
		Calibration: cal,
		A:           simbench.MachineA(),
		B:           simbench.MachineB(),
		Ref:         simbench.Reference(),
		pipelines:   make(map[string]*core.Pipeline),
	}
	if s.SpeedupsA, err = simbench.MeasuredSpeedups(ws, s.A, s.Ref, cfg.Runs, cfg.MeasureSeed); err != nil {
		return nil, err
	}
	if s.SpeedupsB, err = simbench.MeasuredSpeedups(ws, s.B, s.Ref, cfg.Runs, cfg.MeasureSeed+1); err != nil {
		return nil, err
	}
	return s, nil
}

// Characterization identifies one of the paper's three workload
// characterizations.
type Characterization string

const (
	// SARMachineA characterizes with SAR counters collected on
	// machine A (Figures 3-4, Table IV).
	SARMachineA Characterization = "sar-A"
	// SARMachineB characterizes on machine B (Figures 5-6, Table V).
	SARMachineB Characterization = "sar-B"
	// MethodBits characterizes with Java method-utilization bit
	// vectors (Figures 7-8, Table VI).
	MethodBits Characterization = "methods"
	// MicroIndep characterizes with microarchitecture-independent
	// features (instruction mix, memory strides, footprints) — the
	// extension the paper proposes in Section V-C for making
	// clusters machine-invariant. Not a paper artifact; reported as
	// an extension table.
	MicroIndep Characterization = "microindep"
)

// Pipeline returns (building and caching on first use) the
// cluster-detection pipeline for the given characterization.
func (s *Suite) Pipeline(ch Characterization) (*core.Pipeline, error) {
	if p, ok := s.pipelines[string(ch)]; ok {
		return p, nil
	}
	tab, kind, err := s.table(ch)
	if err != nil {
		return nil, err
	}
	p, err := core.DetectClusters(tab, core.PipelineConfig{Kind: kind, SOM: som.Config{Seed: s.Config.SOMSeed}})
	if err != nil {
		return nil, err
	}
	s.pipelines[string(ch)] = p
	return p, nil
}

// table builds the raw characterization table of ch and names the
// preprocessing recipe it needs.
func (s *Suite) table(ch Characterization) (*chars.Table, core.CharKind, error) {
	switch ch {
	case SARMachineA:
		tab, err := simbench.SARTable(s.Workloads, s.A, simbench.SARSpec{Seed: s.Config.SARSeed})
		return tab, core.Counters, err
	case SARMachineB:
		tab, err := simbench.SARTable(s.Workloads, s.B, simbench.SARSpec{Seed: s.Config.SARSeed})
		return tab, core.Counters, err
	case MethodBits:
		tab, err := simbench.HprofTable(s.Workloads)
		return tab, core.Bits, err
	case MicroIndep:
		tab, err := simbench.MicroIndepTable(s.Workloads)
		return tab, core.Counters, err
	}
	return nil, 0, fmt.Errorf("experiments: unknown characterization %q", ch)
}

// RenderTableI writes the suite-composition table (paper Table I).
func (s *Suite) RenderTableI(w io.Writer) error {
	t := viz.NewTable("Workload", "Benchmark Suite", "Version", "Input Set")
	for i := range s.Workloads {
		wl := &s.Workloads[i]
		if err := t.AddRow(wl.Name, string(wl.Suite), wl.Version, wl.InputSet); err != nil {
			return err
		}
	}
	return t.Render(w)
}

// RenderTableII writes the machine settings (paper Table II).
func (s *Suite) RenderTableII(w io.Writer) error {
	t := viz.NewTable("Machine", "CPU", "L2", "Memory", "JVM")
	for _, m := range []simbench.Machine{s.A, s.B, s.Ref} {
		if err := t.AddRow(m.Name, m.CPU,
			fmt.Sprintf("%.0f KB", m.L2KB),
			fmt.Sprintf("%.0f MB", m.MemoryMB),
			m.JVM); err != nil {
			return err
		}
	}
	return t.Render(w)
}
