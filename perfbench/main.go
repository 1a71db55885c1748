// Command perfbench is the repository's end-to-end benchmark. It boots
// the scoring tier in-process (replicas from service.New, the gateway
// from gateway.New, each at its binary's flag defaults), drives one
// closed-loop workload over loopback HTTP, checks every response, and
// prints the end-to-end metrics. With --trace 1 it also replays the
// workload's requests through every layer's public functions and
// prints a per-layer ledger. See README.md.
//
//	bash perfbench/run.sh --workload casestudy-miss --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadOrder, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured closed loop, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	fs.StringVar(&o.spans, "spans", "", "file the traced run's spans are written to at exit (default .bench_build/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, ok := specs[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --trace 0|1 and --seconds > 0\n",
			strings.Join(workloadOrder, ", "))
		return 2
	}
	o.trace = trace == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	}
	for _, line := range header() {
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "workload: %s  seed: %d  seconds: %g  clients: %d  replicas: %d  gateway: %v  trace: %v\n",
		s.name, o.seed, o.seconds, s.clients, s.replicas, s.gateway, o.trace)
	out, err := measure(s, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d requests failed their checks\n", out.Failed, out.Attempted)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line: the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times a run sets the workload up: setup_s is the
// median of their times, and the last set-up is the one measured.
const setups = 3

// measure sets the workload up, runs the timed closed loop and, in a
// traced run, the replay.
func measure(s spec, o options, w io.Writer) (*output, error) {
	seeds := newSOMSeeds(o.seed)
	var setupS []float64
	var r *runner
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		if r, err = setup(s, o.seed, seeds); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
	}
	fmt.Fprintf(w, "setup_s: each of %d set-ups: %v\n", len(setupS), setupS)

	loopFor := o.seconds
	if o.trace {
		// A traced run splits its time: the first half measures the
		// untraced figures the ledger is compared with, the second
		// half replays requests through the layers.
		loopFor /= 2
	}
	res := r.loop(time.Now().Add(seconds(loopFor)), 0, false)
	var led *ledger
	var traceErr error
	if o.trace {
		led, traceErr = r.replay(time.Now().Add(seconds(loopFor)))
	}
	closeErr := r.close()
	r.checkMisses(res)
	if err := errors.Join(traceErr, closeErr, r.recheck(res)); err != nil {
		return nil, err
	}
	if res.failed > 0 {
		fmt.Fprintf(w, "FAILED: %d of %d requests; first: %s\n", res.failed, res.attempted, res.firstFailure)
	}
	out := &output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed}
	e2e := endToEnd(res, setupS)
	printEndToEnd(w, s, res, e2e)
	if !o.trace {
		out.Metrics = e2e
		return out, nil
	}
	out.Metrics = led.metrics(res, e2e)
	led.print(w, out.Metrics, e2e["latency_p50_ms"].Value)
	if err := led.writeSpans(o.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "spans: %s\n", o.spans)
	return out, nil
}

func seconds(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

// endToEnd computes the gated end-to-end metrics of a loop.
func endToEnd(res *result, setupS []float64) map[string]metric {
	ms := millis(res.lat)
	m := map[string]metric{
		"throughput_rps": {float64(len(res.lat)) / res.wall.Seconds(), "1/s"},
		"setup_s":        {median(setupS), "s"},
	}
	if len(ms) > 0 {
		m["latency_p50_ms"] = metric{percentile(ms, 50), "ms"}
	}
	return m
}

// printEndToEnd writes the human-readable end-to-end report, with the
// sample counts every figure rests on.
func printEndToEnd(w io.Writer, s spec, res *result, m map[string]metric) {
	ms := millis(res.lat)
	n := len(ms)
	fmt.Fprintf(w, "end-to-end (%s, %d samples over %.3f s):\n", s.name, n, res.wall.Seconds())
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-16s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	if n >= 100 {
		fmt.Fprintf(w, "  %-16s %12.4f ms  (%d samples, %d beyond)\n", "latency_p90_ms", percentile(ms, 90), n, beyond(n, 90))
	}
	// Peak RSS is reported but not gated: on suite-500 it moves with
	// when the garbage collector runs relative to two concurrent
	// allocation streams, about 20% between runs of the same code.
	fmt.Fprintf(w, "  %-16s %12.4f MB  (process peak, all set-ups included)\n", "peak_rss_mb", peakRSSMB())
	if p := highestTail(n, 10); p > 0 {
		fmt.Fprintf(w, "  tail (diagnostic) p%g = %.4f ms  (%d samples, %d beyond)\n", p, percentile(ms, p), n, beyond(n, p))
	}
	errRate := 0.0
	if res.attempted > 0 {
		errRate = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "  %-16s %12.4f 1  (%d failed of %d attempted)\n", "error_rate", errRate, res.failed, res.attempted)
	if len(res.misses) > 0 {
		fmt.Fprintf(w, "  k=n means equal the plain means bit for bit in %d of %d miss responses (the rest within %g)\n",
			len(res.misses)-res.inexact, len(res.misses), kEqualsNTolerance)
	}
	// Process CPU per request and the CPU share of the machine the loop
	// used: a run that is slow at the same CPU per request waited for
	// the machine, not for more work.
	cpu := res.after.cpu - res.before.cpu
	fmt.Fprintf(w, "  cpu (diagnostic) %.4f ms per request, %.1f%% of %d CPUs\n",
		float64(cpu)/float64(time.Millisecond)/float64(max(res.attempted, 1)),
		100*cpu.Seconds()/res.wall.Seconds()/float64(runtime.NumCPU()), runtime.NumCPU())
}
