package simbench

import (
	"fmt"
	"hash/fnv"
	"math"

	"hmeans/internal/chars"
)

// Phase identifies what a workload is doing at a point in its run.
// Real Java workloads are strongly phased — class loading and JIT
// compilation up front, periodic garbage-collection bursts, I/O
// flushes — and the paper's SAR campaign (15 samples at even
// intervals) observes those phases. The phase model modulates the
// steady-state latent factors per sample so the synthetic counters
// carry realistic time structure, which the averaging step of the
// characterization then collapses exactly as the paper's did.
type Phase int

const (
	// PhaseSteady is the workload's nominal behaviour.
	PhaseSteady Phase = iota
	// PhaseWarmup covers class loading and JIT compilation at the
	// start of the run: system-time heavy, user-IPC poor.
	PhaseWarmup
	// PhaseGC is a garbage-collection burst: faults and system time
	// spike, user CPU stalls.
	PhaseGC
	// PhaseIO is a buffered-I/O flush window.
	PhaseIO
)

// String returns the phase's name.
func (p Phase) String() string {
	switch p {
	case PhaseSteady:
		return "steady"
	case PhaseWarmup:
		return "warmup"
	case PhaseGC:
		return "gc"
	case PhaseIO:
		return "io"
	default:
		return "unknown"
	}
}

// PhaseAt returns the phase of workload w at normalized run time
// t ∈ [0, 1] on the given sample index (the index disambiguates
// deterministic burst placement). The schedule is a deterministic
// function of the demand profile:
//
//   - the first warmupFraction of the run is PhaseWarmup, longer for
//     complex code (more to JIT);
//   - allocation-heavy workloads take periodic PhaseGC bursts, more
//     frequent at higher AllocIntensity;
//   - I/O-heavy workloads take periodic PhaseIO windows.
func PhaseAt(w *Workload, t float64, sample int) Phase {
	d := w.Demand
	warmup := 0.06 + 0.05*d.CodeComplexity
	if t < warmup {
		return PhaseWarmup
	}
	// Deterministic burst placement: hash the sample slot.
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/burst/%d", w.Name, sample)
	u := float64(h.Sum64()%10000) / 10000
	gcShare := math.Min(0.45, 0.5*d.AllocIntensity)
	ioShare := math.Min(0.3, 0.6*d.IOIntensity)
	switch {
	case u < gcShare:
		return PhaseGC
	case u < gcShare+ioShare:
		return PhaseIO
	default:
		return PhaseSteady
	}
}

// phaseModulation scales the latent factors for a phase.
func phaseModulation(f latentFactors, p Phase) latentFactors {
	switch p {
	case PhaseWarmup:
		f.cpuUser *= 0.7
		f.cpuSys *= 1.9
		f.pgfault *= 1.8 // class loading faults pages in
		f.intr *= 1.2
		f.ioTPS *= 1.5 // reading class files
		f.ioRead *= 1.6
	case PhaseGC:
		f.cpuUser *= 0.55
		f.cpuSys *= 1.8
		f.pgfault *= 2.6
		f.majflt *= 1.6
		f.runq += 0.5
	case PhaseIO:
		f.cpuUser *= 0.8
		f.cpuIOWait *= 2.2
		f.ioTPS *= 2.0
		f.ioWrite *= 2.4
		f.intr *= 1.5
	}
	return f
}

// SARTablePhased characterizes each workload with phase-resolved
// vectors instead of whole-run averages: the samples are split into
// early/middle/late thirds, each third averaged separately, and the
// three averages concatenated (features get ".p0/.p1/.p2" suffixes).
// This is the "vertical profiling" style alternative to the paper's
// flat averaging; the ext-phases experiment compares the clusterings
// the two produce.
func SARTablePhased(ws []Workload, m Machine, spec SARSpec) (*chars.Table, error) {
	spec = spec.withDefaults()
	if spec.Samples < 3 {
		return nil, fmt.Errorf("simbench: phased characterization needs at least 3 samples, got %d", spec.Samples)
	}
	baseNames := SARCounterNames()
	features := make([]string, 0, 3*len(baseNames))
	for third := 0; third < 3; third++ {
		for _, n := range baseNames {
			features = append(features, fmt.Sprintf("%s.p%d", n, third))
		}
	}
	rows := make([][]float64, len(ws))
	for i := range ws {
		samples := SampleSAR(&ws[i], m, spec)
		row := make([]float64, 0, 3*len(baseNames))
		bounds := []int{0, len(samples) / 3, 2 * len(samples) / 3, len(samples)}
		for third := 0; third < 3; third++ {
			avg, err := chars.AverageSamples(samples[bounds[third]:bounds[third+1]])
			if err != nil {
				return nil, fmt.Errorf("simbench: phased averaging for %s: %w", ws[i].Name, err)
			}
			row = append(row, avg...)
		}
		rows[i] = row
	}
	return chars.NewTable(WorkloadNames(ws), features, rows)
}
