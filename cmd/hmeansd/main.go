// Command hmeansd serves the hierarchical-means pipeline as a
// long-running HTTP scoring service.
//
//	hmeansd -addr :8080 -max-inflight 4 -queue-depth 64 -cache-size 128
//
// Endpoints:
//
//	POST /v1/score   characterization table + score vectors → full
//	                 pipeline result (SOM, dendrogram, recommended
//	                 cut, hierarchical means per k)
//	GET  /healthz    liveness (200 even while draining)
//	GET  /readyz     readiness (503 once shutdown begins)
//	GET  /version    build description
//	GET  /metrics    metrics registry snapshot (cache hit/miss/
//	                 coalesce counters, queue rejections, latency)
//	GET  /trace      live span stream (JSONL) when -obs.http-style
//	                 tracing is wanted on the service port
//	GET  /debug/...  expvar + net/http/pprof
//
// Identical requests are answered from a content-addressed cache (or
// coalesced onto one in-flight computation); the X-Hmeans-Cache
// response header says which path served each response. When the
// worker pool and its queue are both full the daemon sheds load with
// 429 + Retry-After instead of queueing without bound.
//
// Request telemetry: every request gets an X-Request-ID (the client's
// when valid, generated otherwise) that is echoed in the response,
// stamped on the request's trace span, and written to the structured
// access log enabled with -access-log (one slog JSON line per request
// including shed 429s and timed-out 504s). /metrics answers JSON by
// default and the Prometheus text exposition under Accept: text/plain
// or ?format=prometheus; -runtime-sample feeds goroutine/heap/GC-pause
// metrics into it periodically.
//
// Crash safety: -snapshot names a durable cache file (format
// hmeansd-snap/1). The daemon restores it on boot — warm-restart hits
// are byte-identical to the pre-restart responses, because the
// snapshot stores the served bytes themselves — writes it atomically
// on every graceful shutdown, and optionally on a -snapshot.interval
// ticker so even a crash loses at most one interval of cache warmth.
// Corrupt records are skipped and logged, never served.
//
// The daemon shuts down cleanly on SIGINT/SIGTERM (and when -timeout
// elapses): /readyz flips to 503, new scoring requests are refused
// with 503 + Retry-After, in-flight and queued requests get up to
// -drain.timeout to finish, then the snapshot is written and any
// -obs.trace file flushed on the way out.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hmeans/internal/cliutil"
	"hmeans/internal/obs"
	"hmeans/internal/service"
)

func main() {
	os.Exit(cliutil.Run("hmeansd", os.Stderr, func() error {
		return run(os.Args[1:], os.Stdout)
	}))
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hmeansd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
		maxInflight = fs.Int("max-inflight", 0, "max concurrent pipeline computations (0 = CPU count)")
		queueDepth  = fs.Int("queue-depth", service.DefaultQueueDepth, "max requests queued for a computation slot before shedding with 429")
		cacheSize   = fs.Int("cache-size", service.DefaultCacheSize, "content-addressed result cache entries, and as many raw-body aliases (0 disables both)")
		reqTimeout  = fs.Duration("request-timeout", 0, "per-request compute deadline (e.g. 30s); 0 = none")
		accessLog   = fs.String("access-log", "", "structured request log destination: a file path, or - for stderr (empty disables)")
		sampleEvery = fs.Duration("runtime-sample", 5*time.Second, "runtime metrics sampling interval (goroutines, heap, GC pauses); 0 disables")
		snapshot    = fs.String("snapshot", "", "durable cache snapshot file: restored on boot, written on graceful shutdown (empty disables)")
		snapEvery   = fs.Duration("snapshot.interval", 0, "also write the snapshot periodically (0 = only on shutdown); requires -snapshot")
		drainWait   = fs.Duration("drain.timeout", 5*time.Second, "how long in-flight requests may finish after a termination signal")
	)
	timeout := cliutil.RegisterTimeout(fs)
	obsFlags := obs.RegisterFlags(fs)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	if obsFlags.PrintVersion(stdout, "hmeansd") {
		return nil
	}
	if err := cliutil.ValidateMin("-max-inflight", *maxInflight, 0); err != nil {
		return err
	}
	if err := cliutil.ValidateMin("-queue-depth", *queueDepth, 0); err != nil {
		return err
	}
	if err := cliutil.ValidateMin("-cache-size", *cacheSize, 0); err != nil {
		return err
	}
	if *reqTimeout < 0 {
		return cliutil.Usagef("-request-timeout must be >= 0, got %v", *reqTimeout)
	}
	if *sampleEvery < 0 {
		return cliutil.Usagef("-runtime-sample must be >= 0, got %v", *sampleEvery)
	}
	if *snapEvery < 0 {
		return cliutil.Usagef("-snapshot.interval must be >= 0, got %v", *snapEvery)
	}
	if *snapEvery > 0 && *snapshot == "" {
		return cliutil.Usagef("-snapshot.interval requires -snapshot")
	}
	if *drainWait <= 0 {
		return cliutil.Usagef("-drain.timeout must be > 0, got %v", *drainWait)
	}
	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}
	ctx, cancel := cliutil.WithTimeout(*timeout)
	defer cancel()
	err = serve(ctx, serveArgs{
		addr:        *addr,
		maxInflight: *maxInflight,
		queueDepth:  *queueDepth,
		cacheSize:   *cacheSize,
		reqTimeout:  *reqTimeout,
		accessLog:   *accessLog,
		sampleEvery: *sampleEvery,
		snapshot:    *snapshot,
		snapEvery:   *snapEvery,
		drainWait:   *drainWait,
		obs:         sess.Obs,
	}, stdout)
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	return err
}

type serveArgs struct {
	addr        string
	maxInflight int
	queueDepth  int
	cacheSize   int
	reqTimeout  time.Duration
	accessLog   string
	sampleEvery time.Duration
	snapshot    string
	snapEvery   time.Duration
	drainWait   time.Duration
	obs         *obs.Observer
}

// serve runs the daemon until ctx fires or a termination signal
// arrives; both are planned shutdowns, so it returns nil for them.
func serve(ctx context.Context, a serveArgs, stdout io.Writer) error {
	logger, closeLog, err := cliutil.OpenAccessLog(a.accessLog)
	if err != nil {
		return err
	}
	defer closeLog()
	srv := service.New(service.Config{
		MaxInflight: a.maxInflight,
		QueueDepth:  a.queueDepth,
		CacheSize:   a.cacheSize,
		Timeout:     a.reqTimeout,
		Obs:         a.obs,
		AccessLog:   logger,
	})
	if a.snapshot != "" {
		st, err := srv.LoadSnapshot(a.snapshot, snapshotLogger(logger))
		if err != nil {
			if !errors.Is(err, service.ErrSnapshotFormat) {
				return err
			}
			// Not a snapshot at all: start cold rather than refuse to
			// boot — the file will be replaced on the next shutdown.
			fmt.Fprintf(stdout, "hmeansd ignoring %s: %v\n", a.snapshot, err)
		}
		if st.Restored > 0 || st.Skipped > 0 || st.Truncated {
			fmt.Fprintf(stdout, "hmeansd restored %d cached results from %s (skipped %d, truncated %v)\n",
				st.Restored, a.snapshot, st.Skipped, st.Truncated)
		}
	}
	mux := srv.Handler()
	// The observability endpoints share the service port: one address
	// to scrape, and /metrics carries the service counters.
	o := obs.Or(a.obs)
	o.Register(mux)
	// Runtime health (goroutines, heap, GC pauses) flows into the same
	// registry /metrics serves; the sampler is inert when obs is off.
	sampler := o.Metrics().StartRuntimeSampler(a.sampleEvery)
	defer sampler.Stop()

	ln, err := net.Listen("tcp", a.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	// Catch termination signals before announcing the address: a
	// SIGTERM sent as soon as the address appears must drain, not kill.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	fmt.Fprintf(stdout, "hmeansd %s listening on http://%s\n", obs.Version(), ln.Addr())

	// Periodic snapshots bound the cache warmth a crash can lose to
	// one interval; each write is atomic, so a crash mid-write leaves
	// the previous snapshot intact.
	tickDone := make(chan struct{})
	tickStopped := make(chan struct{})
	if a.snapshot != "" && a.snapEvery > 0 {
		ticker := time.NewTicker(a.snapEvery)
		go func() {
			defer close(tickStopped)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if _, err := srv.SaveSnapshot(a.snapshot); err != nil {
						fmt.Fprintf(os.Stderr, "hmeansd: periodic snapshot: %v\n", err)
					}
				case <-tickDone:
					return
				}
			}
		}()
	} else {
		close(tickStopped)
	}

	select {
	case err := <-errc:
		close(tickDone)
		return err
	case <-sigc:
	case <-ctx.Done():
	}
	// Planned shutdown: stop advertising readiness and refuse new
	// scoring work immediately, give everything already admitted the
	// -drain.timeout budget to finish, then persist the cache. The
	// -timeout deadline is an operator request here, not a failure, so
	// it maps to exit 0.
	srv.BeginDrain()
	drainWait := a.drainWait
	if drainWait <= 0 {
		drainWait = 5 * time.Second
	}
	sctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		close(tickDone)
		return err
	}
	// The periodic writer must be fully stopped before the final save:
	// a tick racing the shutdown write could rename an older snapshot
	// over the complete one.
	close(tickDone)
	<-tickStopped
	if a.snapshot != "" {
		n, err := srv.SaveSnapshot(a.snapshot)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "hmeansd wrote snapshot (%d records) to %s\n", n, a.snapshot)
	}
	fmt.Fprintf(stdout, "hmeansd shut down (%d cached results)\n", srv.CacheLen())
	return nil
}

// snapshotLogger picks where snapshot restore warnings (skipped
// records, truncation) go: the access log when one is configured,
// stderr otherwise — corruption must be visible even on the dark
// path.
func snapshotLogger(accessLog *slog.Logger) *slog.Logger {
	if accessLog != nil {
		return accessLog
	}
	return slog.New(slog.NewJSONHandler(os.Stderr, nil))
}
