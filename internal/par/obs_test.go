package par

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"hmeans/internal/obs"
)

// withDefaultObserver installs a collector-backed default observer for
// the test and restores the previous default afterwards.
func withDefaultObserver(t *testing.T) *obs.Observer {
	t.Helper()
	o := obs.New(obs.NewCollector())
	prev := obs.SetDefault(o)
	t.Cleanup(func() { obs.SetDefault(prev) })
	return o
}

// coverage runs body-style bookkeeping for For/FixedShardsCtx edge cases:
// every index in [0, n) must be visited exactly once.
func checkCoverage(t *testing.T, n int, seen []atomic.Int32) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
	}
}

// TestForEdgeCases sweeps the shard-boundary corners — empty input,
// single element, fewer elements than workers, more workers than
// GOMAXPROCS — and asserts exact coverage under an active observer.
func TestForEdgeCases(t *testing.T) {
	o := withDefaultObserver(t)
	cases := []struct {
		name       string
		n, workers int
	}{
		{"empty", 0, 4},
		{"single", 1, 4},
		{"fewer-than-workers", 3, 8},
		{"more-workers-than-procs", 64, runtime.GOMAXPROCS(0) * 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seen := make([]atomic.Int32, tc.n)
			For(tc.workers, tc.n, func(start, end int) {
				for i := start; i < end; i++ {
					seen[i].Add(1)
				}
			})
			checkCoverage(t, tc.n, seen)
		})
	}
	// Timed fan-outs (n > 1, several chunks) must have fed the
	// imbalance metrics; the inline paths must not count as calls.
	calls := o.Metrics().Counter("par.for.calls").Value()
	if calls != 2 {
		t.Fatalf("par.for.calls = %d, want 2 (the two multi-chunk cases)", calls)
	}
	ratio := o.Metrics().Gauge("par.for.imbalance").Value()
	if ratio < 1 {
		t.Fatalf("imbalance ratio = %v, want >= 1", ratio)
	}
}

// TestFixedShardsEdgeCases is the FixedShardsCtx twin: the same
// corner sweep, asserting shard counts, coverage, and metric emission.
func TestFixedShardsEdgeCases(t *testing.T) {
	o := withDefaultObserver(t)
	cases := []struct {
		name                  string
		n, shardSize, workers int
		wantShards            int
		timed                 bool
	}{
		{"empty", 0, 4, 4, 0, false},
		{"single", 1, 4, 4, 1, false}, // one shard -> serial path
		{"fewer-than-workers", 3, 1, 8, 3, true},
		{"more-workers-than-procs", 64, 4, runtime.GOMAXPROCS(0) * 4, 16, true},
	}
	var wantCalls int64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seen := make([]atomic.Int32, tc.n)
			shards, err := FixedShardsCtx(context.Background(), tc.workers, tc.n, tc.shardSize, func(shard, start, end int) {
				for i := start; i < end; i++ {
					seen[i].Add(1)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if shards != tc.wantShards {
				t.Fatalf("shards = %d, want %d", shards, tc.wantShards)
			}
			checkCoverage(t, tc.n, seen)
		})
		if tc.timed {
			wantCalls++
		}
	}
	if calls := o.Metrics().Counter("par.shards.calls").Value(); calls != wantCalls {
		t.Fatalf("par.shards.calls = %d, want %d", calls, wantCalls)
	}
	// 3 + 16 shards were timed in total.
	if chunks := o.Metrics().Counter("par.shards.chunks").Value(); chunks != 19 {
		t.Fatalf("par.shards.chunks = %d, want 19", chunks)
	}
}

// TestForWithoutObserverEmitsNothing pins the disabled path: no
// default observer means no metrics and the historical behaviour.
func TestForWithoutObserverEmitsNothing(t *testing.T) {
	prev := obs.SetDefault(nil)
	t.Cleanup(func() { obs.SetDefault(prev) })
	var visits atomic.Int32
	For(8, 100, func(start, end int) { visits.Add(int32(end - start)) })
	if visits.Load() != 100 {
		t.Fatalf("visits = %d", visits.Load())
	}
	// Nothing to assert against a registry — there is none; the test
	// passes by not panicking on the nil-observer path.
}
