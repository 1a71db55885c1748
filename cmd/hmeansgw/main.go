// Command hmeansgw fronts a fleet of hmeansd replicas with
// content-addressed routing.
//
//	hmeansgw -addr :8090 \
//	    -replica http://127.0.0.1:8080 -replica http://127.0.0.1:8081
//
// Endpoints:
//
//	POST /v1/score   route a score request over the replica ring
//	GET  /healthz    gateway liveness (200 even while draining)
//	GET  /readyz     quorum-aggregated replica readiness
//	GET  /ring       routing state: membership, arc shares, breakers
//	GET  /version    build description
//	GET  /metrics    gateway counters (routing, roles, failovers)
//
// Requests are routed by their SHA-256 content address over a
// consistent-hash ring, so identical requests land on the same replica
// and the fleet-wide cache behaves like one process's. Concurrent
// identical requests are coalesced across replicas: one dispatch
// computes, everyone shares its bytes. The dispatch does not follow
// its clients, who may leave; -lease.ttl is its deadline, so a replica
// that hangs fails by the gateway's clock and answers 504. A replica
// that fails, sheds or drains is a routing event — its circuit breaker
// opens, the ring walk fails over to the next candidate, and a
// half-open probe re-admits it when it recovers. Responses are served
// byte-identically to what the replica returned, digest-verified on
// both hops.
//
// The gateway shuts down cleanly on SIGINT/SIGTERM (and when -timeout
// elapses): /readyz flips to 503, new scoring requests are refused
// with 503 + Retry-After, and in-flight routing gets -drain.timeout to
// finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hmeans/internal/cliutil"
	"hmeans/internal/gateway"
	"hmeans/internal/obs"
)

func main() {
	os.Exit(cliutil.Run("hmeansgw", os.Stderr, func() error {
		return run(os.Args[1:], os.Stdout)
	}))
}

// replicaList collects repeated -replica flags.
type replicaList []string

func (r *replicaList) String() string { return fmt.Sprint([]string(*r)) }
func (r *replicaList) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hmeansgw", flag.ContinueOnError)
	var replicas replicaList
	fs.Var(&replicas, "replica", "replica base URL (repeatable, e.g. http://127.0.0.1:8080)")
	var (
		addr       = fs.String("addr", "127.0.0.1:8090", "listen address (host:port; :0 picks a free port)")
		vnodes     = fs.Int("vnodes", gateway.DefaultVNodes, "virtual nodes per replica on the routing ring")
		leaseTTL   = fs.Duration("lease.ttl", 30*time.Second, "deadline of one coalesced dispatch, failover and retries included; a replica still silent at it fails with 504")
		retries    = fs.Int("retries", 1, "per-replica dispatch retries before failing over")
		retryBase  = fs.Duration("retry.base", 50*time.Millisecond, "base backoff between per-replica retries")
		seed       = fs.Uint64("seed", 1, "seed for retry jitter streams")
		brThresh   = fs.Int("breaker.threshold", 3, "consecutive failures before a replica leaves rotation")
		brCooldown = fs.Duration("breaker.cooldown", 5*time.Second, "how long an open replica stays out before a half-open probe")
		quorum     = fs.Int("quorum", 0, "ready replicas required for gateway /readyz (0 = majority)")
		probeTO    = fs.Duration("probe.timeout", time.Second, "per-replica /readyz probe timeout")
		accessLog  = fs.String("access-log", "", "structured request log destination: a file path, or - for stderr (empty disables)")
		drainWait  = fs.Duration("drain.timeout", 5*time.Second, "how long in-flight requests may finish after a termination signal")
	)
	timeout := cliutil.RegisterTimeout(fs)
	obsFlags := obs.RegisterFlags(fs)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	if obsFlags.PrintVersion(stdout, "hmeansgw") {
		return nil
	}
	if len(replicas) == 0 {
		return cliutil.Usagef("at least one -replica is required")
	}
	if err := cliutil.ValidateMin("-vnodes", *vnodes, 1); err != nil {
		return err
	}
	if err := cliutil.ValidateMin("-retries", *retries, 0); err != nil {
		return err
	}
	if err := cliutil.ValidateMin("-breaker.threshold", *brThresh, 1); err != nil {
		return err
	}
	if err := cliutil.ValidateMin("-quorum", *quorum, 0); err != nil {
		return err
	}
	if *quorum > len(replicas) {
		return cliutil.Usagef("-quorum %d exceeds the %d configured replicas", *quorum, len(replicas))
	}
	if *leaseTTL <= 0 {
		return cliutil.Usagef("-lease.ttl must be > 0, got %v", *leaseTTL)
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
		addr:       *addr,
		replicas:   replicas,
		vnodes:     *vnodes,
		leaseTTL:   *leaseTTL,
		retries:    *retries,
		retryBase:  *retryBase,
		seed:       *seed,
		brThresh:   *brThresh,
		brCooldown: *brCooldown,
		quorum:     *quorum,
		probeTO:    *probeTO,
		accessLog:  *accessLog,
		drainWait:  *drainWait,
		obs:        sess.Obs,
	}, stdout)
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	return err
}

type serveArgs struct {
	addr       string
	replicas   []string
	vnodes     int
	leaseTTL   time.Duration
	retries    int
	retryBase  time.Duration
	seed       uint64
	brThresh   int
	brCooldown time.Duration
	quorum     int
	probeTO    time.Duration
	accessLog  string
	drainWait  time.Duration
	obs        *obs.Observer
}

// serve runs the gateway until ctx fires or a termination signal
// arrives; both are planned shutdowns, so it returns nil for them.
func serve(ctx context.Context, a serveArgs, stdout io.Writer) error {
	logger, closeLog, err := cliutil.OpenAccessLog(a.accessLog)
	if err != nil {
		return err
	}
	defer closeLog()
	gw, err := gateway.New(gateway.Config{
		Replicas:         a.replicas,
		VNodes:           a.vnodes,
		LeaseTTL:         a.leaseTTL,
		Retries:          a.retries,
		RetryBase:        a.retryBase,
		Seed:             a.seed,
		BreakerThreshold: a.brThresh,
		BreakerCooldown:  a.brCooldown,
		Quorum:           a.quorum,
		ProbeTimeout:     a.probeTO,
		Obs:              a.obs,
		AccessLog:        logger,
	})
	if err != nil {
		return err
	}
	mux := gw.Handler()
	// One address to scrape, same as the replicas: /metrics carries the
	// routing and coalescing-role counters.
	obs.Or(a.obs).Register(mux)

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
	fmt.Fprintf(stdout, "hmeansgw %s listening on http://%s (%d replicas)\n",
		obs.Version(), ln.Addr(), len(a.replicas))

	select {
	case err := <-errc:
		return err
	case <-sigc:
	case <-ctx.Done():
	}
	gw.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), a.drainWait)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Fprintf(stdout, "hmeansgw shut down\n")
	return nil
}
