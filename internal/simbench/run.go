package simbench

import (
	"context"
	"errors"

	"hmeans/internal/rng"
	"hmeans/internal/stat"
)

// RunResult is one simulated execution of a workload on a machine.
type RunResult struct {
	Workload string
	Machine  string
	// Seconds is the measured (noisy) wall-clock time.
	Seconds float64
}

// runNoise is the relative standard deviation of run-to-run time
// variation (scheduler jitter, GC timing, cache state).
const runNoise = 0.012

// Run simulates a single execution of w on m, perturbing the
// modelled time with multiplicative measurement noise drawn from r.
func Run(w *Workload, m Machine, r *rng.Source) RunResult {
	base := ExecutionTime(w, m)
	noisy := base * (1 + runNoise*r.NormFloat64())
	if noisy < base*0.9 {
		noisy = base * 0.9 // a run can't beat physics by much
	}
	return RunResult{Workload: w.Name, Machine: m.Name, Seconds: noisy}
}

// MeasureTime runs w on m `runs` times and returns the mean time,
// mirroring the paper's "executed 10 times on each machine, and the
// average execution time was used".
func MeasureTime(w *Workload, m Machine, runs int, r *rng.Source) (float64, error) {
	if runs <= 0 {
		return 0, errors.New("simbench: runs must be positive")
	}
	times := make([]float64, runs)
	for i := range times {
		times[i] = Run(w, m, r).Seconds
	}
	return stat.ArithmeticMean(times)
}

// Measurement is a run campaign summary: the mean time and a
// bootstrap confidence interval around it.
type Measurement struct {
	// Mean is the average wall-clock seconds over the runs.
	Mean float64
	// CI is the percentile-bootstrap confidence interval of the mean.
	CI stat.Interval
	// Times holds the individual run times.
	Times []float64
}

// MeasureTimeStats runs w on m `runs` times and returns the mean with
// a bootstrap confidence interval at the given level — the interval a
// responsible benchmark report attaches to a score. Needs at least
// two runs.
func MeasureTimeStats(w *Workload, m Machine, runs int, level float64, r *rng.Source) (Measurement, error) {
	if runs < 2 {
		return Measurement{}, errors.New("simbench: need at least two runs for an interval")
	}
	times := make([]float64, runs)
	for i := range times {
		times[i] = Run(w, m, r).Seconds
	}
	mean, err := stat.ArithmeticMean(times)
	if err != nil {
		return Measurement{}, err
	}
	ci, err := stat.BootstrapCI(times, level, 400, r.Uint64(), stat.ArithmeticMean)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{Mean: mean, CI: ci, Times: times}, nil
}

// MeasuredSpeedups measures every workload on the target machine and
// the reference (runs executions each, averaged) and returns the
// speedups time(ref)/time(target) in workload order. The seed makes
// the measurement campaign reproducible.
func MeasuredSpeedups(ws []Workload, target, ref Machine, runs int, seed uint64) ([]float64, error) {
	return MeasuredSpeedupsCtx(context.Background(), ws, target, ref, runs, seed)
}
