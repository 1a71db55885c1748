// Command hmeansload drives a live hmeansd the way a fleet of
// clients would and reports the tail latencies that came back — the
// load side of the serving story, and the binary behind the CI
// load-SLO gate.
//
//	hmeansload -rps 50 -n 500 -dist pareto -mix hit=60,miss=30,invalid=10
//	hmeansload -addr http://127.0.0.1:8080 -mode closed -concurrency 16
//	hmeansload -scores speedups.csv -chars sar.csv -check slo.json -o load-report.json
//	hmeansload -input load-report.json -check slo.json
//
// With no -addr, hmeansload boots a self-managed daemon (the same
// service stack cmd/hmeansd serves) on an ephemeral loopback port and
// tears it down after the run, so a load run is hermetic: CI needs no
// externally provisioned service and cannot leak one. The -self.*
// flags size that daemon; their defaults match cmd/hmeansd's.
//
// The run is replayable: the arrival schedule and the payload mix are
// pure functions of -seed, so the same command line reproduces the
// same request sequence byte for byte — including the X-Request-ID
// each request is sent under (load-<seed>-<index>). The report names
// the slowest requests by those IDs, so a tail sample joins directly
// against the daemon's access log and JSONL trace
// (report -timings trace.jsonl -request load-7-000042).
// The report is versioned JSON
// (hmeans-load/1, via -o) plus a human table on stdout; -check gates
// the run against a committed SLO file (hmeans-slo/1) and exits
// non-zero on any breach — after writing the report, so the artifact
// survives a failed gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"hmeans/internal/cliutil"
	"hmeans/internal/load"
	"hmeans/internal/obs"
	"hmeans/internal/service"
)

func main() {
	os.Exit(cliutil.Run("hmeansload", os.Stderr, func() error {
		return run(os.Args[1:], os.Stdout)
	}))
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hmeansload", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "", "base URL of a running hmeansd; empty boots a self-managed daemon for the run")
		mode       = fs.String("mode", "open", "loop discipline: open (fixed arrival schedule) or closed (workers that wait and honor Retry-After)")
		dist       = fs.String("dist", "constant", "arrival (open) / think-gap (closed) distribution: constant, uniform or pareto")
		rps        = fs.Float64("rps", 50, "target mean arrival rate; in closed mode 0 disables think time")
		n          = fs.Int("n", 200, "total request count")
		conc       = fs.Int("concurrency", 8, "closed-loop worker count (open loop ignores it)")
		seed       = fs.Uint64("seed", 2007, "run seed: same seed, same arrival schedule and payload sequence")
		mixFlag    = fs.String("mix", "hit=60,miss=30,invalid=10", "payload mix percentages (cache-hit replays, unique misses, invalid 400s)")
		maxRetries = fs.Int("max-retries", 3, "closed-loop retries per request (429s, transport errors) before counting it dropped")
		breakerThr = fs.Int("breaker.threshold", 0, "closed-loop shared circuit breaker: consecutive transport failures that open it (0 disables)")
		scoresPath = fs.String("scores", "", "CSV of workload,score for the base request (requires -chars)")
		charsPath  = fs.String("chars", "", "CSV characterization matrix for the base request (requires -scores)")
		kind       = fs.String("kind", "counters", "characterization kind for CSV base requests: counters or bits")
		workloads  = fs.Int("workloads", 13, "synthetic base request: workload count (used when no CSVs are given)")
		features   = fs.Int("features", 6, "synthetic base request: feature count")
		outPath    = fs.String("o", "", "write the versioned JSON report (hmeans-load/1) to this file")
		table      = fs.Bool("table", true, "print the human-readable summary table")
		checkPath  = fs.String("check", "", "SLO file (hmeans-slo/1) to gate on; any breach exits non-zero")
		inputPath  = fs.String("input", "", "re-check an existing report instead of running (requires -check)")
		selfInfl   = fs.Int("self.max-inflight", 0, "self-managed daemon: max concurrent computations (0 = CPU count)")
		selfQueue  = fs.Int("self.queue-depth", service.DefaultQueueDepth, "self-managed daemon: queued requests before shedding with 429")
		selfCache  = fs.Int("self.cache-size", service.DefaultCacheSize, "self-managed daemon: content-addressed cache entries (0 disables)")
		selfRepl   = fs.Int("self.replicas", 1, "self-managed mode: boot this many replicas behind an in-process hmeansgw gateway (1 = single daemon, no gateway)")
	)
	timeout := cliutil.RegisterTimeout(fs)
	obsFlags := obs.RegisterFlags(fs)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	if obsFlags.PrintVersion(stdout, "hmeansload") {
		return nil
	}

	if *inputPath != "" {
		// Re-check mode: no run, just re-gate a recorded report (e.g.
		// a CI artifact) against a possibly updated SLO.
		if *checkPath == "" {
			return cliutil.Usagef("-input needs -check: re-checking a report without an SLO does nothing")
		}
		rep, err := load.ReadReport(*inputPath)
		if err != nil {
			return err
		}
		return report(rep, *outPath, *table, *checkPath, stdout)
	}

	loopMode, err := load.ParseMode(*mode)
	if err != nil {
		return cliutil.Usagef("%v", err)
	}
	loopDist, err := load.ParseDist(*dist)
	if err != nil {
		return cliutil.Usagef("%v", err)
	}
	mix, err := load.ParseMix(*mixFlag)
	if err != nil {
		return cliutil.Usagef("%v", err)
	}
	if err := cliutil.ValidateMin("-n", *n, 1); err != nil {
		return err
	}
	if err := cliutil.ValidateMin("-max-retries", *maxRetries, 0); err != nil {
		return err
	}
	if err := cliutil.ValidateMin("-breaker.threshold", *breakerThr, 0); err != nil {
		return err
	}
	if loopMode == load.Open || *rps != 0 {
		if err := cliutil.ValidatePositiveFloat("-rps", *rps); err != nil {
			return err
		}
	}
	if loopMode == load.Closed {
		if err := cliutil.ValidateMin("-concurrency", *conc, 1); err != nil {
			return err
		}
	}
	if err := cliutil.ValidateMin("-self.max-inflight", *selfInfl, 0); err != nil {
		return err
	}
	if err := cliutil.ValidateMin("-self.queue-depth", *selfQueue, 0); err != nil {
		return err
	}
	if err := cliutil.ValidateMin("-self.cache-size", *selfCache, 0); err != nil {
		return err
	}
	if err := cliutil.ValidateMin("-self.replicas", *selfRepl, 1); err != nil {
		return err
	}
	if *addr != "" && *selfRepl > 1 {
		return cliutil.Usagef("-self.replicas only applies to self-managed mode (drop -addr)")
	}

	base, err := baseRequest(*scoresPath, *charsPath, *kind, *workloads, *features, *seed)
	if err != nil {
		return err
	}
	payloads, err := load.BuildPayloads(base, mix, *n, *seed)
	if err != nil {
		return err
	}

	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer sess.Close()
	ctx, cancel := cliutil.WithTimeout(*timeout)
	defer cancel()

	target := strings.TrimSuffix(*addr, "/")
	selfManaged := target == ""
	if selfManaged {
		selfCfg := service.Config{
			MaxInflight: *selfInfl,
			QueueDepth:  *selfQueue,
			CacheSize:   *selfCache,
			Obs:         sess.Obs,
		}
		if *selfRepl > 1 {
			// Cluster mode: the load loop targets an in-process gateway
			// over N replicas, exercising routing, failover and the
			// cross-replica coalescing under the same schedule a single
			// daemon gets.
			c, err := load.StartCluster(*selfRepl, selfCfg)
			if err != nil {
				return err
			}
			defer func() {
				if cerr := c.Close(); cerr != nil {
					fmt.Fprintf(stdout, "self-managed cluster close: %v\n", cerr)
				}
			}()
			target = c.URL
			fmt.Fprintf(stdout, "self-managed hmeansgw on %s (%d replicas, max-inflight %d, queue-depth %d, cache %d)\n",
				target, *selfRepl, *selfInfl, *selfQueue, *selfCache)
		} else {
			d, err := load.StartDaemon(selfCfg)
			if err != nil {
				return err
			}
			defer func() {
				if cerr := d.Close(); cerr != nil {
					fmt.Fprintf(stdout, "self-managed daemon close: %v\n", cerr)
				}
			}()
			target = d.URL
			fmt.Fprintf(stdout, "self-managed hmeansd on %s (max-inflight %d, queue-depth %d, cache %d)\n",
				target, *selfInfl, *selfQueue, *selfCache)
		}
	}

	rep, err := load.Run(ctx, load.Config{
		BaseURL:          target,
		Mode:             loopMode,
		Dist:             loopDist,
		RPS:              *rps,
		Payloads:         payloads,
		Concurrency:      *conc,
		Seed:             *seed,
		MaxRetries:       *maxRetries,
		BreakerThreshold: *breakerThr,
		Obs:              sess.Obs,
	})
	if err != nil {
		return err
	}
	rep.Config.Workloads = len(base.Table.Workloads)
	if selfManaged {
		rep.Config.SelfManaged = true
		// The effective pool size: service.New sizes 0 to the CPU count.
		rep.Config.MaxInflight = *selfInfl
		if rep.Config.MaxInflight <= 0 {
			rep.Config.MaxInflight = runtime.NumCPU()
		}
		rep.Config.QueueDepth = *selfQueue
	}
	return report(rep, *outPath, *table, *checkPath, stdout)
}

// baseRequest picks the request every payload derives from: the CSV
// pair when given (the paper's real case study), the synthetic
// two-blob fixture otherwise (hermetic, no files needed).
func baseRequest(scoresPath, charsPath, kind string, workloads, features int, seed uint64) (*service.Request, error) {
	if (scoresPath == "") != (charsPath == "") {
		return nil, cliutil.Usagef("-scores and -chars must be given together")
	}
	if scoresPath != "" {
		return load.BaseRequestFromCSV(scoresPath, charsPath, kind, seed)
	}
	if err := cliutil.ValidateMin("-workloads", workloads, 4); err != nil {
		return nil, err
	}
	if err := cliutil.ValidateMin("-features", features, 1); err != nil {
		return nil, err
	}
	return load.SyntheticBaseRequest(workloads, features, seed), nil
}

// report emits the run's outputs in gate-friendly order: the JSON
// artifact first (so it exists even when the gate fails), the human
// table next, the SLO verdict last — a breach is the return value,
// which cliutil.Run maps to a non-zero exit.
func report(rep *load.Report, outPath string, table bool, checkPath string, stdout io.Writer) error {
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		werr := rep.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	if table {
		if err := rep.WriteTable(stdout); err != nil {
			return err
		}
	}
	if checkPath == "" {
		return nil
	}
	slo, err := load.ReadSLO(checkPath)
	if err != nil {
		return err
	}
	if err := rep.Check(slo); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "SLO ok: p99 %.1fms <= %.1fms, error rate %.4f <= %.4f\n",
		rep.LatencyMs.P99, slo.MaxP99Ms, rep.ErrorRate, slo.MaxErrorRate)
	return nil
}
