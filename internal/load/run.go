// Package load is the production load harness behind cmd/hmeansload:
// it drives a live hmeansd the way a fleet of clients would and turns
// what comes back into a gateable tail-latency report.
//
// Two loop disciplines are supported, because they answer different
// questions:
//
//   - The open loop fires requests on a precomputed arrival schedule
//     regardless of how fast the daemon answers. Arrivals do not slow
//     down when the service does, so queueing delay shows up in the
//     measured latencies instead of being silently absorbed — this is
//     the discipline that exposes tail collapse and coordinated
//     omission, and the one the CI gate uses.
//   - The closed loop keeps a fixed number of workers, each waiting
//     for its response (honoring 429 Retry-After) before sending the
//     next request. It measures sustainable throughput under polite
//     clients and exercises the retry path.
//
// Arrival schedules and payload mixes are pure functions of the seed
// (internal/rng, no math/rand), so a run is replayable: same -seed,
// same schedule, same payload sequence, byte for byte.
package load

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hmeans/internal/obs"
	"hmeans/internal/resilience"
	"hmeans/internal/service"
)

// Mode names a load-generation loop discipline.
type Mode string

// The supported modes.
const (
	Open   Mode = "open"
	Closed Mode = "closed"
)

// ParseMode validates a -mode flag value.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case Open, Closed:
		return Mode(s), nil
	}
	return "", fmt.Errorf("unknown mode %q (want open or closed)", s)
}

// Config describes one load run.
type Config struct {
	// BaseURL targets the daemon (e.g. http://127.0.0.1:8080).
	BaseURL string
	// Mode selects the loop discipline.
	Mode Mode
	// Dist shapes inter-arrival (open) or think-time (closed) gaps.
	Dist Dist
	// RPS is the target mean arrival rate. In closed mode 0 disables
	// think time entirely (maximum pressure).
	RPS float64
	// Payloads is the pre-built request sequence; its length is the
	// request count.
	Payloads *PayloadSet
	// Concurrency is the closed-loop worker count; ignored when open.
	Concurrency int
	// Seed derives the arrival/think schedule (the payload sequence
	// was seeded at BuildPayloads time).
	Seed uint64
	// MaxRetries bounds closed-loop retries per request (Retry-After
	// 429s, transport errors, integrity failures); negative means 0.
	MaxRetries int
	// BreakerThreshold, when > 0, arms a shared circuit breaker for
	// the closed loop: that many consecutive transport failures open
	// it, workers back off for roughly one Retry-After instead of
	// hammering a dead daemon, and a half-open probe closes it again
	// once the daemon answers. 0 disables the breaker.
	BreakerThreshold int
	// Obs, when active, receives a span per run plus client-side
	// counters and the latency histogram under load.* names. Nil
	// falls back to the process default.
	Obs *obs.Observer
	// Client overrides the HTTP client; nil builds one sized for the
	// run's concurrency.
	Client *http.Client
}

// Run executes the configured load run and summarizes it. ctx cancels
// the run early; whatever was measured up to that point is still
// reported (with an error only if nothing completed).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Payloads == nil || len(cfg.Payloads.Kinds) == 0 {
		return nil, fmt.Errorf("load: no payloads")
	}
	n := len(cfg.Payloads.Kinds)
	if cfg.Mode == Closed && cfg.Concurrency <= 0 {
		return nil, fmt.Errorf("load: closed loop needs concurrency > 0, got %d", cfg.Concurrency)
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	var schedule []time.Duration
	if cfg.Mode == Open || cfg.RPS > 0 {
		var err error
		if schedule, err = Schedule(cfg.Dist, cfg.RPS, n, cfg.Seed); err != nil {
			return nil, err
		}
	}
	client := cfg.Client
	if client == nil {
		workers := cfg.Concurrency
		if cfg.Mode == Open {
			workers = n // open loop: every request may be in flight at once
		}
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        workers,
			MaxIdleConnsPerHost: workers,
		}}
	}

	o := obs.Or(cfg.Obs)
	sp := o.StartSpan("load.run",
		obs.KV("mode", string(cfg.Mode)), obs.KV("dist", string(cfg.Dist)),
		obs.KV("requests", n), obs.KV("rps", cfg.RPS))
	defer sp.End()

	rec := newRecorder()
	// One Remote posts every request of the run. Its retry policy is
	// the zero value: the closed loop keeps its own retry and breaker
	// accounting.
	remote := service.NewRemote(service.RemoteConfig{BaseURL: cfg.BaseURL, Client: client})
	// Correlation IDs are precomputed so the hot loop only indexes:
	// request i of a run is always RequestID(seed, i), which makes a
	// report's slowest-request IDs reproducible run over run and
	// greppable straight out of the daemon's access log and trace.
	ids := make([]string, n)
	for i := range ids {
		ids[i] = RequestID(cfg.Seed, i)
	}
	start := time.Now()
	switch cfg.Mode {
	case Open:
		runOpen(ctx, remote, cfg.Payloads, ids, schedule, rec)
	default:
		runClosed(ctx, remote, cfg, ids, schedule, rec)
	}
	wall := time.Since(start)

	rep := assemble(cfg, rec, wall)
	sp.SetAttr("done", rep.Totals.Done)
	sp.SetAttr("errors", rep.Totals.Errors)
	sp.SetAttr("p99_ms", rep.LatencyMs.P99)
	if o.Active() {
		m := o.Metrics()
		m.Counter("load.sent").Add(rep.Totals.Sent)
		m.Counter("load.errors").Add(rep.Totals.Errors)
		m.Counter("load.shed").Add(rep.Totals.Shed)
	}
	if rep.Totals.Done == 0 {
		return rep, fmt.Errorf("load: no request completed (transport errors: %d)", rep.Totals.TransportErrors)
	}
	return rep, nil
}

// runOpen fires request i at schedule[i] no matter what came back
// earlier. A 429 is terminal here: an open-loop client that re-queued
// sheds would change the arrival process it is supposed to hold fixed.
func runOpen(ctx context.Context, remote *service.Remote, ps *PayloadSet, ids []string, schedule []time.Duration, rec *recorder) {
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	var wg sync.WaitGroup
	for i := range ps.Bodies {
		wait := schedule[i] - time.Since(start)
		if wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				wg.Wait()
				return
			}
		} else if ctx.Err() != nil {
			wg.Wait()
			return
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status := send(ctx, remote, ids[i], ps.Bodies[i], ps.Expect[i], rec)
			switch {
			case status == 0:
				rec.dropFailed() // open loop never retries: terminal
			case status == http.StatusTooManyRequests:
				rec.dropShed()
			}
		}(i)
	}
	wg.Wait()
}

// runClosed runs workers pulling requests off a shared index; each
// worker sleeps its think gap, sends, and retries the same payload on
// a 429 (waiting out a jittered Retry-After) or a transport/integrity
// failure, up to cfg.MaxRetries. With BreakerThreshold > 0 the workers
// share one circuit breaker: consecutive transport failures open it,
// and workers then back off instead of hammering a dead daemon.
func runClosed(ctx context.Context, remote *service.Remote, cfg Config, ids []string, schedule []time.Duration, rec *recorder) {
	ps := cfg.Payloads
	var br *resilience.Breaker
	if cfg.BreakerThreshold > 0 {
		br = resilience.NewBreaker(cfg.BreakerThreshold, retryAfterDelay())
	}
	var next atomic.Int64
	gapAt := func(i int) time.Duration {
		if schedule == nil {
			return 0
		}
		if i == 0 {
			return schedule[0]
		}
		return schedule[i] - schedule[i-1]
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker jitters its waits from its own seeded stream:
			// the run stays replayable from -seed alone, but workers
			// that shed together do not wake in lockstep and re-shed.
			jr := retryJitter(cfg.Seed + 0x9E3779B97F4A7C15*uint64(w+1))
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ps.Bodies) || ctx.Err() != nil {
					return
				}
				if gap := gapAt(i); gap > 0 && !sleep(ctx, gap) {
					return
				}
				for attempt := 0; ; attempt++ {
					status, blocked := 0, false
					if br != nil && br.Allow() != nil {
						blocked = true
					} else {
						// Retries reuse the same ID: they are the same
						// logical request, and the server-side log then
						// shows every attempt under one correlation key.
						status = send(ctx, remote, ids[i], ps.Bodies[i], ps.Expect[i], rec)
						if br != nil {
							br.Record(status == 0)
						}
					}
					if status != 0 && status != http.StatusTooManyRequests {
						break // a real answer, even a 4xx/5xx: the request resolved
					}
					if attempt >= cfg.MaxRetries || !sleep(ctx, jr.Delay(1)) {
						switch {
						case blocked:
							rec.dropBlocked()
						case status == http.StatusTooManyRequests:
							rec.dropShed()
						default: // status 0: transport/integrity, never resolved
							rec.dropFailed()
						}
						break
					}
					rec.retries.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if br != nil {
		rec.opens.Store(br.Opens())
	}
}

// retryAfterDelay converts the service's exported Retry-After
// contract into a base wait, used as the breaker cooldown. The daemon
// always sends whole seconds (service.RetryAfter); parsing the shared
// constant instead of the response header keeps the delay
// deterministic and pins the two sides together. Worker sleeps jitter
// around this base via retryJitter.
func retryAfterDelay() time.Duration {
	secs, err := strconv.Atoi(service.RetryAfter)
	if err != nil || secs < 1 {
		secs = 1
	}
	return time.Duration(secs) * time.Second
}

// retryJitter returns a closed-loop worker's wait source: each
// Delay(1) is the Retry-After base spread by a seeded ±25%, one draw
// from the seed's stream per call, so a fleet of shed clients retrying
// "after 1 second" does not reconverge on the same instant and shed
// again.
func retryJitter(seed uint64) *resilience.Retryer {
	return resilience.NewRetryer(resilience.Policy{BaseDelay: retryAfterDelay(), Jitter: 0.25}, seed)
}

// RequestID is the deterministic correlation ID the harness sends as
// X-Request-ID for request i of a run seeded with seed. Pure function
// of (seed, i), like the schedule and the payload bytes — so a
// report's slowest-request IDs name the same requests on every replay
// and can be grepped through the daemon's access log and JSONL trace.
func RequestID(seed uint64, i int) string {
	return fmt.Sprintf("load-%d-%06d", seed, i)
}

// send issues one request and records the outcome. It returns the
// HTTP status, or 0 when no trustworthy answer arrived.
func send(ctx context.Context, remote *service.Remote, id string, body []byte, expect int, rec *recorder) int {
	rec.sent.Add(1)
	t0 := time.Now()
	// Post reads the full body, so the connection is reusable and the
	// timing covers the whole response — what a client experiences —
	// and checks a 200's bytes against their digest.
	_, _, err := remote.Post(service.WithRequestID(ctx, id), body)
	status := http.StatusOK
	var ue *service.UpstreamError
	switch {
	case errors.As(err, &ue):
		status = ue.Status
	case err != nil:
		// No trustworthy answer: a network failure, a torn read, or a
		// corrupted 200. The last is worse than no answer, so it counts
		// as an integrity failure AND a transport error (never as
		// done): it is retried and can never pass as a good response.
		var ie *service.IntegrityError
		if errors.As(err, &ie) {
			rec.integrity.Add(1)
		}
		rec.transport.Add(1)
		return 0
	}
	rec.observe(id, status, expect, float64(time.Since(t0))/float64(time.Millisecond))
	return status
}

// sleep waits d or until ctx fires; it reports whether the full wait
// completed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// assemble folds the recorder into the report.
func assemble(cfg Config, rec *recorder, wall time.Duration) *Report {
	sent := rec.sent.Load()
	errs := rec.failedDrop.Load() + rec.mismatch.Load() + rec.dropped.Load() + rec.blocked.Load()
	rep := &Report{
		Schema: Schema,
		Config: ReportConfig{
			Mode:        string(cfg.Mode),
			Dist:        string(cfg.Dist),
			RPS:         cfg.RPS,
			Requests:    len(cfg.Payloads.Kinds),
			Concurrency: cfg.Concurrency,
			Seed:        cfg.Seed,
			Mix:         mixOf(cfg.Payloads),
			Payloads:    cfg.Payloads.Counts(),
			Target:      cfg.BaseURL,
		},
		Totals: Totals{
			Sent:             sent,
			Done:             rec.done.Load(),
			Retries:          rec.retries.Load(),
			Shed:             rec.shed.Load(),
			DroppedShed:      rec.dropped.Load(),
			TransportErrors:  rec.transport.Load(),
			TransportDropped: rec.failedDrop.Load(),
			Mismatches:       rec.mismatch.Load(),
			IntegrityErrors:  rec.integrity.Load(),
			BreakerDropped:   rec.blocked.Load(),
			BreakerOpens:     rec.opens.Load(),
			Errors:           errs,
		},
		StatusCounts: rec.statusCounts(),
		Slowest:      rec.slow.sorted(),
		LatencyMs: Latency{
			P50:   rec.hist.Quantile(0.50),
			P90:   rec.hist.Quantile(0.90),
			P95:   rec.hist.Quantile(0.95),
			P99:   rec.hist.Quantile(0.99),
			Max:   rec.max(),
			Mean:  rec.hist.Mean(),
			Count: rec.hist.Count(),
		},
		DurationS: wall.Seconds(),
	}
	if wall > 0 {
		rep.ThroughputRPS = float64(rep.Totals.Done) / wall.Seconds()
	}
	if sent > 0 {
		rep.ErrorRate = float64(errs) / float64(sent)
	}
	return rep
}

// mixOf reconstructs the percentage string from the materialized set
// (exact when n is a multiple of 100, descriptive otherwise).
func mixOf(ps *PayloadSet) string {
	n := len(ps.Kinds)
	if n == 0 {
		return ""
	}
	c := ps.Counts()
	return fmt.Sprintf("hit=%d,miss=%d,invalid=%d",
		100*c[KindHit.String()]/n, 100*c[KindMiss.String()]/n, 100*c[KindInvalid.String()]/n)
}
