// Command benchsim runs the simulated benchmark suite (the paper's
// hypothetical SPECjvm2007-like suite on machines A, B and the
// reference) and emits the raw materials of the case study:
//
//	benchsim -emit speedups -machine A          # workload,score CSV
//	benchsim -emit sar      -machine B          # SAR characterization CSV
//	benchsim -emit methods                      # method-utilization bit CSV
//	benchsim -emit times    -machine reference  # per-run execution times
//
// The CSVs feed straight into the hmeans tool.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"hmeans/internal/cliutil"
	"hmeans/internal/dataio"
	"hmeans/internal/obs"
	"hmeans/internal/par"
	"hmeans/internal/rng"
	"hmeans/internal/simbench"
)

func main() {
	os.Exit(cliutil.Run("benchsim", os.Stderr, func() error {
		return run(os.Args[1:], os.Stdout)
	}))
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchsim", flag.ContinueOnError)
	var (
		emit     = fs.String("emit", "speedups", "what to emit: speedups, sar, methods, times or manifest")
		machine  = fs.String("machine", "A", "machine: A, B or reference")
		runs     = fs.Int("runs", 10, "executions averaged per measurement")
		seed     = fs.Uint64("seed", 1, "measurement / sampling seed")
		suite    = fs.String("suite", "", "JSON suite manifest (default: the built-in calibrated suite)")
		parallel = fs.Int("parallel", 1, "worker count for -emit speedups (0 = all CPUs); values > 1 measure workloads concurrently on independent noise sub-streams, identical for every worker count")
	)
	timeout := cliutil.RegisterTimeout(fs)
	obsFlags := obs.RegisterFlags(fs)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	if obsFlags.PrintVersion(stdout, "benchsim") {
		return nil
	}
	if err := cliutil.ValidateParallel(*parallel); err != nil {
		return err
	}
	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}
	ctx, cancel := cliutil.WithTimeout(*timeout)
	defer cancel()
	err = emitOutput(ctx, *emit, *machine, *runs, *seed, *suite, *parallel, stdout)
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	return err
}

func emitOutput(ctx context.Context, emit, machine string, runs int, seed uint64, suite string, parallel int, stdout io.Writer) error {
	m, err := machineByName(machine)
	if err != nil {
		return err
	}
	var ws []simbench.Workload
	suiteName := "specjvm2007-sim"
	if suite != "" {
		f, err := os.Open(suite)
		if err != nil {
			return err
		}
		suiteName, ws, err = simbench.LoadSuite(f)
		f.Close()
		if err != nil {
			return err
		}
	} else if ws, _, err = simbench.CalibratedSuite(); err != nil {
		return err
	}

	workers := parallel
	if workers <= 0 {
		workers = par.Auto()
	}

	switch emit {
	case "speedups":
		// -parallel 1 keeps the historical single-stream measurement
		// campaign byte-for-byte; higher values switch to per-workload
		// sub-streams so the campaign can fan out without its output
		// depending on the worker count.
		var vals []float64
		var err error
		if workers > 1 {
			vals, err = simbench.MeasuredSpeedupsParallelCtx(ctx, ws, m, simbench.Reference(), runs, seed, workers)
		} else {
			vals, err = simbench.MeasuredSpeedupsCtx(ctx, ws, m, simbench.Reference(), runs, seed)
		}
		if err != nil {
			return err
		}
		return dataio.WriteScores(stdout, dataio.Scores{
			Workloads: simbench.WorkloadNames(ws),
			Values:    vals,
		})
	case "sar":
		tab, err := simbench.SARTable(ws, m, simbench.SARSpec{Seed: seed})
		if err != nil {
			return err
		}
		return dataio.WriteMatrix(stdout, dataio.Matrix{
			Workloads: tab.Workloads,
			Features:  tab.Features,
			Rows:      tab.Rows,
		})
	case "methods":
		tab, err := simbench.HprofTable(ws)
		if err != nil {
			return err
		}
		return dataio.WriteMatrix(stdout, dataio.Matrix{
			Workloads: tab.Workloads,
			Features:  tab.Features,
			Rows:      tab.Rows,
		})
	case "times":
		r := rng.New(seed)
		fmt.Fprintln(stdout, "workload,run,seconds")
		for i := range ws {
			for run := 1; run <= runs; run++ {
				res := simbench.Run(&ws[i], m, r)
				fmt.Fprintf(stdout, "%s,%d,%.4f\n", res.Workload, run, res.Seconds)
			}
		}
		return nil
	case "manifest":
		return simbench.SaveSuite(stdout, suiteName, ws)
	default:
		return fmt.Errorf("unknown -emit %q (want speedups, sar, methods, times or manifest)", emit)
	}
}

func machineByName(name string) (simbench.Machine, error) {
	switch name {
	case "A", "a":
		return simbench.MachineA(), nil
	case "B", "b":
		return simbench.MachineB(), nil
	case "reference", "ref":
		return simbench.Reference(), nil
	default:
		return simbench.Machine{}, fmt.Errorf("unknown machine %q (want A, B or reference)", name)
	}
}
