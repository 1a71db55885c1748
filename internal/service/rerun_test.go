package service

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// scoreResult is one Score call's outcome, for tests that run it on
// another goroutine.
type scoreResult struct {
	raw    []byte
	status string
	err    error
}

func scoreAsync(s *Server, ctx context.Context, req *Request) <-chan scoreResult {
	out := make(chan scoreResult, 1)
	go func() {
		raw, status, err := s.Score(ctx, req)
		out <- scoreResult{raw, status, err}
	}()
	return out
}

// TestFlightRechecksCache: a request that leads a new flight for a key
// whose result is already cached answers from the cache, reports a
// hit and computes nothing. That is the state a request reaches when
// it misses the cache just before the previous flight stores the
// result and reaches the group just after that flight closes; here a
// flight whose leader left stands in for the closing flight, so the
// interleaving is fixed instead of raced.
func TestFlightRechecksCache(t *testing.T) {
	req := testRequest(3)
	want, _, err := New(Config{}).Score(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{MaxInflight: 1, CacheSize: 4})
	var computed atomic.Int32
	s.computeHook = func(*Request) { computed.Add(1) }
	k := req.CacheKey()
	release := make(chan struct{})
	go s.group.Do(context.Background(), k, func() ([]byte, bool, error) {
		<-release
		return nil, true, context.Canceled
	})
	waitForCond(t, func() bool { return s.group.Len() == 1 }, "flight open")
	done := scoreAsync(s, context.Background(), req)
	waitForCond(t, func() bool { return s.group.Waiting() == 1 }, "request joined the flight")
	s.cache.Put(k, want)
	close(release)
	got := <-done
	if got.err != nil || got.status != CacheHit {
		t.Fatalf("status %q, error %v; want a hit", got.status, got.err)
	}
	if !bytes.Equal(got.raw, want) {
		t.Fatal("the re-checked hit served different bytes")
	}
	if n := computed.Load(); n != 0 {
		t.Fatalf("computed the cached key %d times", n)
	}
}

// TestFollowerOutlivesCancelledLeader: when the leader's client leaves
// while the leader queues for a worker slot, a follower whose own
// context is live runs the flight itself and gets the result, not the
// leader's context error.
func TestFollowerOutlivesCancelledLeader(t *testing.T) {
	s := New(Config{MaxInflight: 1, QueueDepth: 4, CacheSize: 4})
	anchor, req := testRequest(1), testRequest(2)
	entered, release := make(chan struct{}), make(chan struct{})
	var computed atomic.Int32
	s.computeHook = func(r *Request) {
		if r == anchor {
			close(entered)
			<-release
			return
		}
		computed.Add(1)
	}
	anchorDone := scoreAsync(s, context.Background(), anchor)
	<-entered // the anchor holds the only slot

	lctx, cancel := context.WithCancel(context.Background())
	leaderDone := scoreAsync(s, lctx, req)
	waitForCond(t, func() bool { return s.Queued() == 1 }, "leader queued")
	followerDone := scoreAsync(s, context.Background(), req)
	waitForCond(t, func() bool { return s.group.Waiting() == 1 }, "follower joined")

	cancel()
	if got := <-leaderDone; !errors.Is(got.err, context.Canceled) {
		t.Fatalf("leader error %v, want context.Canceled", got.err)
	}
	// The follower either queues in the leader's place or, inheriting
	// the leader's error, returns at once.
	waitForCond(t, func() bool { return s.Queued() == 1 || len(followerDone) == 1 }, "follower queued or returned")
	if len(followerDone) == 1 {
		got := <-followerDone
		t.Fatalf("follower returned before the slot freed: status %q, error %v", got.status, got.err)
	}
	close(release)
	if got := <-anchorDone; got.err != nil {
		t.Fatal(got.err)
	}
	got := <-followerDone
	if got.err != nil || got.status != CacheMiss {
		t.Fatalf("follower: status %q, error %v; want a miss it computed", got.status, got.err)
	}
	want, _, err := New(Config{}).Score(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.raw, want) {
		t.Fatal("follower's bytes differ from a fresh computation")
	}
	if n := computed.Load(); n != 1 {
		t.Fatalf("computed the key %d times, want 1", n)
	}
}
