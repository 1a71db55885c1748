// Command report generates a complete scoring report for the
// simulated suite on one machine: per-workload scores with bootstrap
// confidence intervals, the detected cluster structure with a
// recommended cut, and the hierarchical-mean sweep.
//
//	report -machine A
//	report -machine B -chars methods -mean harmonic
//
// It also post-processes JSONL traces written with -obs.trace and
// Prometheus text scraped from a daemon's /metrics:
//
//	report -timings trace.jsonl         # per-stage timing table
//	report -timings trace.jsonl -request r-4f…   # one request's spans only
//	report -validate-trace trace.jsonl  # schema check, non-zero on failure
//	report -validate-metrics m.prom     # exposition check, non-zero on failure
//
// -request takes the X-Request-ID a client sent (hmeansctl -v prints
// it; hmeansload reports its slowest ones) and narrows -timings to
// that request's span subtree — the server-side breakdown of exactly
// the request the client measured.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hmeans"
	"hmeans/internal/cliutil"
	"hmeans/internal/obs"
	"hmeans/internal/report"
	"hmeans/internal/rng"
	"hmeans/internal/simbench"
	"hmeans/internal/som"
	"hmeans/internal/viz"
)

func main() {
	os.Exit(cliutil.Run("report", os.Stderr, func() error {
		return run(os.Args[1:], os.Stdout)
	}))
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	var (
		machine  = fs.String("machine", "A", "machine to score: A or B")
		charKind = fs.String("chars", "sar", "characterization: sar, methods or microindep")
		meanName = fs.String("mean", "geometric", "mean family")
		runs     = fs.Int("runs", 10, "runs per measurement")
		seed     = fs.Uint64("seed", 1, "measurement seed")
		somSeed  = fs.Uint64("somseed", 2007, "SOM training seed")
		timings  = fs.String("timings", "", "render the per-stage timing table of this JSONL trace and exit")
		request  = fs.String("request", "", "with -timings: restrict the table to the request span carrying this X-Request-ID")
		validate = fs.String("validate-trace", "", "validate this JSONL trace against the trace schema and exit")
		valProm  = fs.String("validate-metrics", "", "validate this Prometheus text exposition file and exit")
	)
	timeout := cliutil.RegisterTimeout(fs)
	obsFlags := obs.RegisterFlags(fs)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	if obsFlags.PrintVersion(stdout, "report") {
		return nil
	}
	if *validate != "" {
		return validateTrace(*validate, stdout)
	}
	if *valProm != "" {
		return validateMetrics(*valProm, stdout)
	}
	if *timings != "" {
		return renderTimings(*timings, *request, stdout)
	}
	if *request != "" {
		return cliutil.Usagef("-request only applies together with -timings")
	}

	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}
	ctx, cancel := cliutil.WithTimeout(*timeout)
	defer cancel()
	err = writeReport(ctx, *machine, *charKind, *meanName, *runs, *seed, *somSeed, stdout)
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeReport(ctx context.Context, machine, charKind, meanName string, runs int, seed, somSeed uint64, stdout io.Writer) error {
	var m simbench.Machine
	switch machine {
	case "A", "a":
		m = simbench.MachineA()
	case "B", "b":
		m = simbench.MachineB()
	default:
		return fmt.Errorf("unknown machine %q (want A or B)", machine)
	}
	var kind hmeans.MeanKind
	switch meanName {
	case "geometric":
		kind = hmeans.Geometric
	case "arithmetic":
		kind = hmeans.Arithmetic
	case "harmonic":
		kind = hmeans.Harmonic
	default:
		return fmt.Errorf("unknown mean %q", meanName)
	}

	ws, _, err := simbench.CalibratedSuite()
	if err != nil {
		return err
	}
	ref := simbench.Reference()

	// Measure: scores plus the raw run times behind them.
	r := rng.New(seed)
	scores := make([]float64, len(ws))
	runTimes := make([][]float64, len(ws))
	for i := range ws {
		meas, err := simbench.MeasureTimeStats(&ws[i], m, runs, 0.95, r)
		if err != nil {
			return err
		}
		refTime, err := simbench.MeasureTime(&ws[i], ref, runs, r)
		if err != nil {
			return err
		}
		scores[i] = refTime / meas.Mean
		runTimes[i] = meas.Times
	}

	// Characterize and detect clusters.
	var (
		table    *hmeans.Table
		kindChar hmeans.CharKind
	)
	switch charKind {
	case "sar":
		table, err = simbench.SARTable(ws, m, simbench.SARSpec{Seed: seed})
	case "methods":
		table, err = simbench.HprofTable(ws)
		kindChar = hmeans.Bits
	case "microindep":
		table, err = simbench.MicroIndepTable(ws)
	default:
		return fmt.Errorf("unknown characterization %q (want sar, methods or microindep)", charKind)
	}
	if err != nil {
		return err
	}
	p, err := hmeans.DetectClustersCtx(ctx, table, hmeans.PipelineConfig{
		Kind: kindChar,
		SOM:  som.Config{Seed: somSeed},
	})
	if err != nil {
		return err
	}

	return report.Write(stdout, report.Input{
		Title:     fmt.Sprintf("Scoring report: machine %s vs reference (%s characterization)", m.Name, charKind),
		Workloads: simbench.WorkloadNames(ws),
		Scores:    scores,
		RunTimes:  runTimes,
		Pipeline:  p,
		Kind:      kind,
		KMin:      2,
		KMax:      8,
		Seed:      seed,
	})
}

// validateTrace checks a JSONL trace file against the trace schema
// and prints a one-line summary; any violation surfaces as an error
// (and therefore a non-zero exit).
func validateTrace(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	stats, err := obs.ValidateTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(stdout, "trace OK: %d spans, %d events (%s, build %s)\n",
		stats.Spans, stats.Events, stats.Header.Format, stats.Header.Version)
	return nil
}

// validateMetrics checks a Prometheus text exposition file (a scrape
// of a daemon's /metrics) against the format's invariants and prints
// a one-line summary; any violation surfaces as an error (and
// therefore a non-zero exit).
func validateMetrics(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	stats, err := obs.ValidatePrometheus(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(stdout, "metrics OK: %d counters, %d gauges, %d histograms, %d samples\n",
		stats.Counters, stats.Gauges, stats.Histograms, stats.Samples)
	return nil
}

// renderTimings reads a trace and renders the per-stage rollup: how
// often each stage ran, where wall-clock and CPU time went, and how
// much of the pipeline's wall-clock the stage spans explain. A
// non-empty requestID narrows the rollup to the span subtree of the
// service request that carried that X-Request-ID.
func renderTimings(path, requestID string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := obs.ReadTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	spans := tr.Spans
	if requestID != "" {
		spans, err = requestSubtree(tr.Spans, requestID)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(stdout, "request %s: %d spans\n", requestID, len(spans))
	}
	if len(spans) == 0 {
		return fmt.Errorf("%s: trace has no spans", path)
	}
	t := viz.NewTable("stage", "count", "wall", "proc cpu", "min", "max")
	for _, st := range obs.Summarize(spans) {
		if err := t.AddRow(st.Name, fmt.Sprintf("%d", st.Count),
			fmtDur(st.Wall), fmtDur(st.CPU), fmtDur(st.Min), fmtDur(st.Max)); err != nil {
			return err
		}
	}
	if err := t.Render(stdout); err != nil {
		return err
	}
	// For a single request the interesting root is its request span;
	// for a whole trace it is the pipeline.
	root := "pipeline"
	if requestID != "" {
		root = "request"
	}
	if cov, ok := (&obs.Trace{Spans: spans}).Coverage(root); ok {
		fmt.Fprintf(stdout, "\nstage spans cover %.1f%% of %s wall-clock\n", 100*cov, root)
	}
	return nil
}

// requestSubtree selects the request span stamped with the given
// X-Request-ID plus every descendant, following Parent links — the
// server-side breakdown of one client-visible request.
func requestSubtree(spans []obs.SpanData, requestID string) ([]obs.SpanData, error) {
	keep := make(map[uint64]bool)
	for _, s := range spans {
		if s.Name != "request" {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key == "request_id" && fmt.Sprint(a.Val) == requestID {
				keep[s.ID] = true
			}
		}
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("no request span with request_id %q", requestID)
	}
	// Spans are written child-before-parent, so walk until no new
	// descendants join instead of assuming an order.
	for grew := true; grew; {
		grew = false
		for _, s := range spans {
			if keep[s.Parent] && !keep[s.ID] {
				keep[s.ID] = true
				grew = true
			}
		}
	}
	out := make([]obs.SpanData, 0, len(keep))
	for _, s := range spans {
		if keep[s.ID] {
			out = append(out, s)
		}
	}
	return out, nil
}

// fmtDur renders a duration rounded for table display.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
