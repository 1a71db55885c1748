package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestZeroPolicySingleAttempt(t *testing.T) {
	rt := NewRetryer(Policy{}, 1)
	calls := 0
	err := rt.Do(context.Background(), func(context.Context) error {
		calls++
		return errors.New("boom")
	}, nil)
	if calls != 1 {
		t.Fatalf("zero policy made %d attempts, want 1", calls)
	}
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestRetryBudgetAndSuccess(t *testing.T) {
	rt := NewRetryer(Policy{MaxRetries: 3}, 1)
	calls := 0
	err := rt.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	}, nil)
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want nil/3", err, calls)
	}

	calls = 0
	rt = NewRetryer(Policy{MaxRetries: 2}, 1)
	err = rt.Do(context.Background(), func(context.Context) error {
		calls++
		return errors.New("permanent-ish")
	}, nil)
	if err == nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want error after 3 attempts", err, calls)
	}
}

func TestNonRetryableStopsImmediately(t *testing.T) {
	rt := NewRetryer(Policy{MaxRetries: 5}, 1)
	fatal := errors.New("fatal")
	calls := 0
	err := rt.Do(context.Background(), func(context.Context) error {
		calls++
		return fatal
	}, func(err error) bool { return !errors.Is(err, fatal) })
	if !errors.Is(err, fatal) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want fatal after 1 attempt", err, calls)
	}
}

// TestDelayDeterministic pins the jittered backoff schedule for a
// fixed seed: two retryers with the same policy and seed must produce
// the same delays, and a different seed must diverge.
func TestDelayDeterministic(t *testing.T) {
	p := Policy{MaxRetries: 4, BaseDelay: 100 * time.Millisecond, Jitter: 0.25}
	a, b := NewRetryer(p, 42), NewRetryer(p, 42)
	c := NewRetryer(p, 43)
	var diverged bool
	for i := 1; i <= 4; i++ {
		da, db, dc := a.Delay(i), b.Delay(i), c.Delay(i)
		if da != db {
			t.Fatalf("attempt %d: same seed gave %v and %v", i, da, db)
		}
		if da != dc {
			diverged = true
		}
		// ±25% of 100ms·2^(i-1).
		base := time.Duration(100*time.Millisecond) << uint(i-1)
		if da < base*3/4 || da > base*5/4 {
			t.Fatalf("attempt %d: delay %v outside ±25%% of %v", i, da, base)
		}
	}
	if !diverged {
		t.Fatal("different seeds never diverged")
	}
}

func TestDelayZeroBase(t *testing.T) {
	rt := NewRetryer(Policy{MaxRetries: 3}, 1)
	if d := rt.Delay(2); d != 0 {
		t.Fatalf("zero BaseDelay delay = %v, want 0", d)
	}
}

// hintedErr carries a server Retry-After hint.
type hintedErr struct{ d time.Duration }

func (e *hintedErr) Error() string             { return fmt.Sprintf("shed (retry after %v)", e.d) }
func (e *hintedErr) RetryAfter() time.Duration { return e.d }

// TestRetryAfterHintWins checks Do waits the server's hint when it
// exceeds the local backoff.
func TestRetryAfterHintWins(t *testing.T) {
	rt := NewRetryer(Policy{MaxRetries: 1, BaseDelay: time.Millisecond}, 1)
	var slept []time.Duration
	rt.SetSleep(func(_ context.Context, d time.Duration) bool {
		slept = append(slept, d)
		return true
	})
	calls := 0
	err := rt.Do(context.Background(), func(context.Context) error {
		calls++
		if calls == 1 {
			return &hintedErr{d: 3 * time.Second}
		}
		return nil
	}, nil)
	if err != nil || calls != 2 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if len(slept) != 1 || slept[0] != 3*time.Second {
		t.Fatalf("slept %v, want the 3s server hint", slept)
	}
}

// TestDoStopsOnContextCancel cancels once Do is in its first backoff:
// the injected sleep signals that it was entered and then waits like
// the real one, so the cancel cannot race the first attempt.
func TestDoStopsOnContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rt := NewRetryer(Policy{MaxRetries: 10, BaseDelay: time.Hour}, 1)
	inBackoff := make(chan struct{})
	rt.SetSleep(func(ctx context.Context, d time.Duration) bool {
		close(inBackoff)
		return sleepCtx(ctx, d)
	})
	calls := 0
	go func() {
		<-inBackoff
		cancel()
	}()
	err := rt.Do(ctx, func(context.Context) error {
		calls++
		return errors.New("keep trying")
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (cancel fired during the first backoff)", calls)
	}
}

// TestBreakerLifecycle walks closed → open → half-open → closed and
// half-open → open with a fake clock, so every transition is
// deterministic.
func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, 10*time.Second)
	b.SetClock(func() time.Time { return now })

	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker refused attempt %d: %v", i, err)
		}
		b.Record(true)
	}
	if got := b.State(); got != "closed" {
		t.Fatalf("state %q below threshold, want closed", got)
	}
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(true) // third consecutive failure: opens
	if got := b.State(); got != "open" {
		t.Fatalf("state %q after threshold failures, want open", got)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker allowed an attempt (err=%v)", err)
	}

	// Cooldown elapses: exactly one probe allowed.
	now = now.Add(11 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("second concurrent probe allowed")
	}
	b.Record(true) // probe failed: reopen
	if got := b.State(); got != "open" {
		t.Fatalf("state %q after failed probe, want open", got)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("reopened breaker allowed an attempt inside the new cooldown")
	}

	// Second cooldown, successful probe: closed again.
	now = now.Add(11 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	b.Record(false)
	if got := b.State(); got != "closed" {
		t.Fatalf("state %q after successful probe, want closed", got)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed breaker refused: %v", err)
	}
	b.Record(false)
	if got := b.Opens(); got != 2 {
		t.Fatalf("Opens() = %d, want 2", got)
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := NewBreaker(2, time.Minute)
	b.Record(true)
	b.Record(false)
	b.Record(true)
	if got := b.State(); got != "closed" {
		t.Fatalf("state %q, want closed (streak was broken)", got)
	}
}
