package load

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"hmeans/internal/service"
)

// goConcurrency makes client/server concurrency real on a 1-CPU CI
// box: with GOMAXPROCS=1 a fast handler runs to completion before the
// next arrival is even read off its socket, so neither queueing nor
// shedding could ever be observed.
func goConcurrency(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(max(4, runtime.NumCPU()))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// healthySLO is loose enough for any CI box; the undersized test
// below must breach it anyway.
func healthySLO() *SLO {
	return &SLO{Schema: SLOSchema, MaxP99Ms: 30_000, MaxErrorRate: 0.01}
}

func runSelfManaged(t *testing.T, svc service.Config, cfg Config) *Report {
	t.Helper()
	d, err := StartDaemon(svc)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.Close(); err != nil {
			t.Errorf("daemon close: %v", err)
		}
	}()
	cfg.BaseURL = d.URL
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rep
}

func checkAccounting(t *testing.T, rep *Report) {
	t.Helper()
	tot := rep.Totals
	if tot.Done+tot.TransportErrors != tot.Sent {
		t.Errorf("accounting: done %d + transport %d != sent %d", tot.Done, tot.TransportErrors, tot.Sent)
	}
	var statusSum int64
	for _, v := range rep.StatusCounts {
		statusSum += v
	}
	if statusSum != tot.Done {
		t.Errorf("status counts sum to %d, done is %d", statusSum, tot.Done)
	}
	if uint64(tot.Done) != rep.LatencyMs.Count {
		t.Errorf("latency count %d != done %d", rep.LatencyMs.Count, tot.Done)
	}
	if tot.Errors != tot.TransportDropped+tot.Mismatches+tot.DroppedShed+tot.BreakerDropped {
		t.Errorf("errors %d != transport-dropped %d + mismatches %d + dropped %d + breaker-dropped %d",
			tot.Errors, tot.TransportDropped, tot.Mismatches, tot.DroppedShed, tot.BreakerDropped)
	}
	if tot.TransportDropped > tot.TransportErrors {
		t.Errorf("transport-dropped %d exceeds per-attempt transport errors %d",
			tot.TransportDropped, tot.TransportErrors)
	}
	if tot.IntegrityErrors > tot.TransportErrors {
		t.Errorf("integrity errors %d exceed transport errors %d (each must be counted in both)",
			tot.IntegrityErrors, tot.TransportErrors)
	}
}

// TestOpenLoopHealthyDaemonMeetsSLO is the load gate in miniature: an
// open-loop mixed run against an adequately sized self-managed daemon
// must complete every request with its contracted status and pass
// the committed-style SLO.
func TestOpenLoopHealthyDaemonMeetsSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("load run skipped in -short mode")
	}
	goConcurrency(t)
	base := SyntheticBaseRequest(8, 4, 2007)
	ps, err := BuildPayloads(base, Mix{HitPct: 60, MissPct: 30, InvalidPct: 10}, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	rep := runSelfManaged(t,
		service.Config{MaxInflight: 4, QueueDepth: 64, CacheSize: 128},
		Config{Mode: Open, Dist: Uniform, RPS: 150, Payloads: ps, Seed: 11})

	checkAccounting(t, rep)
	if rep.Totals.Errors != 0 {
		t.Fatalf("healthy run produced %d errors: %+v (status %v)", rep.Totals.Errors, rep.Totals, rep.StatusCounts)
	}
	if rep.StatusCounts["200"] == 0 || rep.StatusCounts["400"] == 0 {
		t.Fatalf("expected both 200s and 400s in a mixed run, got %v", rep.StatusCounts)
	}
	if rep.Schema != Schema {
		t.Errorf("schema %q", rep.Schema)
	}
	if err := rep.Check(healthySLO()); err != nil {
		t.Errorf("healthy run breached the SLO: %v", err)
	}
}

// TestOpenLoopUndersizedDaemonFailsSLO is the acceptance criterion:
// the same gate, pointed at a deliberately undersized daemon
// (-max-inflight=1, no queue), must fail — open-loop arrivals outrun
// the single worker, sheds pile up, and the error-rate SLO breaks.
func TestOpenLoopUndersizedDaemonFailsSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("load run skipped in -short mode")
	}
	goConcurrency(t)
	// n=40 workloads: each miss costs well over an arrival gap, so the
	// single worker cannot hide the overload inside one scheduling
	// quantum. All misses: every request needs a real pipeline run, so
	// a 1-wide pool with no queue must shed under a 200 rps open loop.
	base := SyntheticBaseRequest(40, 6, 2007)
	ps, err := BuildPayloads(base, Mix{MissPct: 100}, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	rep := runSelfManaged(t,
		service.Config{MaxInflight: 1, QueueDepth: 0, CacheSize: 0},
		Config{Mode: Open, Dist: Constant, RPS: 200, Payloads: ps, Seed: 11})

	checkAccounting(t, rep)
	if rep.Totals.Shed == 0 {
		t.Fatal("undersized daemon never shed — the overload was not an overload")
	}
	if err := rep.Check(healthySLO()); err == nil {
		t.Fatalf("undersized daemon passed the SLO: %+v", rep.Totals)
	} else if !strings.Contains(err.Error(), "error rate") {
		t.Errorf("breach should name the error rate, got: %v", err)
	}
}

// TestClosedLoopHonorsRetryAfter drives an undersized daemon with a
// closed loop: workers that hit a 429 wait out Retry-After and retry,
// so with enough budget the run completes without errors — the shed
// requests resolve instead of being dropped.
func TestClosedLoopHonorsRetryAfter(t *testing.T) {
	if testing.Short() {
		t.Skip("load run skipped in -short mode")
	}
	goConcurrency(t)
	base := SyntheticBaseRequest(40, 6, 2007)
	ps, err := BuildPayloads(base, Mix{MissPct: 100}, 16, 11)
	if err != nil {
		t.Fatal(err)
	}
	rep := runSelfManaged(t,
		service.Config{MaxInflight: 1, QueueDepth: 0, CacheSize: 0},
		Config{Mode: Closed, Dist: Constant, RPS: 0, Concurrency: 6,
			Payloads: ps, Seed: 11, MaxRetries: 20})

	checkAccounting(t, rep)
	if rep.Totals.Shed == 0 {
		t.Fatal("6 workers against a pool of 1 never shed — expected 429s")
	}
	if rep.Totals.Retries == 0 {
		t.Fatal("sheds occurred but no Retry-After retry was issued")
	}
	if rep.Totals.Errors != 0 {
		t.Fatalf("closed loop with retry budget still errored: %+v", rep.Totals)
	}
}

// TestRetryAfterJitterGolden pins the closed loop's jittered retry
// schedule for a fixed seed, and its contract: always within ±25% of
// the 1-second Retry-After, deterministic per seed, divergent across
// seeds.
func TestRetryAfterJitterGolden(t *testing.T) {
	golden := []time.Duration{1100288241, 889375614, 1169813730}
	jr := retryJitter(7)
	for i, want := range golden {
		if got := jr.Delay(1); got != want {
			t.Fatalf("draw %d: %v, want %v", i, got, want)
		}
	}
	jr = retryJitter(99)
	for i := 0; i < 100; i++ {
		d := jr.Delay(1)
		if d < 750*time.Millisecond || d >= 1250*time.Millisecond {
			t.Fatalf("draw %d: %v outside ±25%% of 1s", i, d)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("empty config accepted")
	}
	base := SyntheticBaseRequest(8, 4, 1)
	ps, _ := BuildPayloads(base, Mix{HitPct: 100}, 4, 1)
	if _, err := Run(context.Background(), Config{Mode: Closed, Payloads: ps}); err == nil {
		t.Error("closed loop without concurrency accepted")
	}
	if _, err := Run(context.Background(), Config{Mode: Open, Dist: Constant, RPS: 0, Payloads: ps}); err == nil {
		t.Error("open loop without rps accepted")
	}
}
