// Package resilience provides the client-side resilience primitives
// of the scoring tier: bounded retry with seeded, jittered exponential
// backoff, and a half-open circuit breaker. service.Remote — the one
// client of POST /v1/score, shared by hmeansctl, hmeansload and the
// gateway — retries through a Retryer; internal/load's closed loop
// adds its own Retry-After waits and shared Breaker on top, and the
// gateway keeps a Breaker per replica.
//
// Determinism follows the same discipline as internal/rng: every
// delay is a pure function of (Policy, Seed, call order), never of
// wall-clock or the global math/rand, so a chaos test that replays a
// seed replays the exact retry schedule.
// The breaker's clock and every sleep are injectable for the same
// reason.
package resilience

import (
	"context"
	"errors"
	"time"

	"hmeans/internal/rng"
)

// Policy shapes a Retryer: how many retries, and how long the pauses
// between them are. The zero value retries nothing and sleeps
// nothing — bit-identical to calling the attempt function once.
type Policy struct {
	// MaxRetries bounds re-attempts after the first try; <= 0 means a
	// single attempt.
	MaxRetries int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it. Zero disables sleeping entirely (and draws no
	// jitter), keeping tests instant and rand-free.
	BaseDelay time.Duration
	// Jitter spreads each delay by ±Jitter (a fraction, e.g. 0.25 for
	// ±25%), drawn from the Retryer's seeded stream. 0 means none.
	// Values outside [0, 1) are clamped into it.
	Jitter float64
}

// Retryer executes attempts under a Policy. It is not safe for
// concurrent use — each worker owns one, so the jitter stream stays
// a pure function of (seed, attempt order) per worker.
type Retryer struct {
	p     Policy
	r     *rng.Source
	sleep func(ctx context.Context, d time.Duration) bool
}

// NewRetryer builds a Retryer whose jitter stream depends only on
// seed.
func NewRetryer(p Policy, seed uint64) *Retryer {
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter >= 1 {
		p.Jitter = 0.999
	}
	return &Retryer{p: p, r: rng.New(seed), sleep: sleepCtx}
}

// SetSleep replaces the context-aware sleep for tests; fn reports
// whether the full wait completed (false: ctx fired).
func (rt *Retryer) SetSleep(fn func(ctx context.Context, d time.Duration) bool) { rt.sleep = fn }

// Delay returns the pause before retry `attempt` (1-based): BaseDelay
// doubled per earlier retry, then spread by ±Jitter from the seeded
// stream. It consumes one jitter draw per
// call when Jitter > 0, so the schedule is reproducible only when
// attempts are made in order — which a single-owner Retryer
// guarantees.
func (rt *Retryer) Delay(attempt int) time.Duration {
	p := rt.p
	if p.BaseDelay <= 0 || attempt < 1 {
		return 0
	}
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= 2
	}
	if p.Jitter > 0 {
		// Uniform in [1-Jitter, 1+Jitter).
		d *= 1 - p.Jitter + 2*p.Jitter*rt.r.Float64()
	}
	return time.Duration(d)
}

// RetryAfter is the marker a typed error can implement to carry a
// server-issued retry hint (hmeansd's Retry-After on 429/503). Do
// waits the larger of the hint and its own backoff before the next
// attempt, so a polite client never comes back earlier than the
// server asked.
type RetryAfter interface {
	error
	RetryAfter() time.Duration
}

// Do runs attempt up to 1+MaxRetries times. retryable says whether an
// error is worth another attempt (nil means every error is). Between
// attempts it sleeps the larger of the backoff and any RetryAfter
// hint the error carries; a context cancellation during the sleep (or
// reported by attempt itself) ends the loop with that error. The
// returned error is the last attempt's.
func (rt *Retryer) Do(ctx context.Context, attempt func(ctx context.Context) error, retryable func(error) bool) error {
	var err error
	for a := 0; ; a++ {
		err = attempt(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			return err
		}
		if a >= rt.p.MaxRetries || (retryable != nil && !retryable(err)) {
			return err
		}
		d := rt.Delay(a + 1)
		var ra RetryAfter
		if errors.As(err, &ra) && ra.RetryAfter() > d {
			d = ra.RetryAfter()
		}
		if d > 0 && !rt.sleep(ctx, d) {
			return ctx.Err()
		}
	}
}

// sleepCtx waits d or until ctx fires; it reports whether the full
// wait completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
