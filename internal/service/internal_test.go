package service

import (
	"context"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(b byte) cacheKey {
	var k cacheKey
	k[0] = b
	return k
}

func TestLimiterImmediateAndQueueReject(t *testing.T) {
	l := newLimiter(1, 1)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// Slot held: one caller may queue, the next must be shed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queued := make(chan error, 1)
	go func() { queued <- l.acquire(ctx) }()
	waitForCond(t, func() bool { return l.queued() == 1 }, "caller queued")
	if err := l.acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-queue acquire = %v, want ErrOverloaded", err)
	}
	l.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	l.release()
}

func TestLimiterContextCancelWhileQueued(t *testing.T) {
	l := newLimiter(1, 4)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer l.release()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- l.acquire(ctx) }()
	waitForCond(t, func() bool { return l.queued() == 1 }, "caller queued")
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	if l.queued() != 0 {
		t.Fatalf("queue count leaked: %d", l.queued())
	}
}

func TestSingleflightRunsOnce(t *testing.T) {
	g := NewGroup[[]byte]()
	var runs atomic.Int32
	release := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	vals := make([][]byte, callers)
	leaders := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, leader, err := g.Do(context.Background(), key(7), func() ([]byte, bool, error) {
				runs.Add(1)
				<-release
				return []byte("result"), false, nil
			})
			if err != nil {
				t.Errorf("do: %v", err)
			}
			vals[i], leaders[i] = v, leader
		}(i)
	}
	waitForCond(t, func() bool { return runs.Load() == 1 && g.Waiting() == callers-1 }, "followers joined")
	close(release)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", runs.Load())
	}
	nLeaders := 0
	for i := range vals {
		if string(vals[i]) != "result" {
			t.Fatalf("caller %d got %q", i, vals[i])
		}
		if leaders[i] {
			nLeaders++
		}
	}
	if nLeaders != 1 {
		t.Fatalf("%d leaders, want exactly 1", nLeaders)
	}
	if g.Len() != 0 {
		t.Fatalf("flight leaked: %d", g.Len())
	}
}

// TestSingleflightDistinctKeysDoNotCoalesce pins that flights are
// per key: concurrent callers on distinct keys each run fn.
func TestSingleflightDistinctKeysDoNotCoalesce(t *testing.T) {
	g := NewGroup[[]byte]()
	var runs atomic.Int32
	release := make(chan struct{})
	const keys = 4
	var wg sync.WaitGroup
	for i := 0; i < keys; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, leader, err := g.Do(context.Background(), key(byte(i)), func() ([]byte, bool, error) {
				runs.Add(1)
				<-release
				return []byte("x"), false, nil
			})
			if !leader || err != nil {
				t.Errorf("key %d: leader=%v err=%v, want its own flight", i, leader, err)
			}
		}(i)
	}
	waitForCond(t, func() bool { return g.Len() == keys }, "one flight per key")
	close(release)
	wg.Wait()
	if got := runs.Load(); got != keys {
		t.Fatalf("fn ran %d times for %d distinct keys, want %d", got, keys, keys)
	}
}

func TestSingleflightFollowerDeadline(t *testing.T) {
	g := NewGroup[[]byte]()
	release := make(chan struct{})
	started := make(chan struct{})
	go g.Do(context.Background(), key(9), func() ([]byte, bool, error) {
		close(started)
		<-release
		return nil, false, nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, leader, err := g.Do(ctx, key(9), func() ([]byte, bool, error) { return nil, false, nil })
	if leader || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower got leader=%v err=%v, want deadline error", leader, err)
	}
	close(release)
}

func TestCacheKeyCanonical(t *testing.T) {
	base := testRequest(1)
	if testRequest(1).CacheKey() != base.CacheKey() {
		t.Fatal("identical requests hash differently")
	}

	// Map insertion order must not matter: rebuild Scores in the
	// opposite order.
	reordered := testRequest(1)
	scores := map[string][]float64{}
	for _, name := range []string{"B", "A"} {
		scores[name] = append([]float64(nil), reordered.Scores[name]...)
	}
	reordered.Scores = scores
	if reordered.CacheKey() != base.CacheKey() {
		t.Fatal("score map ordering changed the cache key")
	}

	mutations := map[string]func(*Request){
		"seed":           func(r *Request) { r.Config.Seed = 2 },
		"kind":           func(r *Request) { r.Config.Kind = "bits" },
		"skip_som":       func(r *Request) { r.Config.SkipSOM = true },
		"soft_placement": func(r *Request) { r.Config.SoftPlacement = true },
		"quarantine":     func(r *Request) { r.Config.Quarantine = true },
		"k":              func(r *Request) { r.K = 3 },
		"k_min":          func(r *Request) { r.KMin = 3 },
		"k_max":          func(r *Request) { r.KMax = 5 },
		"table value":    func(r *Request) { r.Table.Rows[0][0] += 1e-9 },
		"workload name":  func(r *Request) { r.Table.Workloads[0] = "other" },
		"feature name":   func(r *Request) { r.Table.Features[0] = "other" },
		"score value":    func(r *Request) { r.Scores["A"][0] += 1e-9 },
		"vector name":    func(r *Request) { r.Scores["C"] = r.Scores["A"]; delete(r.Scores, "A") },
	}
	for name, mutate := range mutations {
		r := testRequest(1)
		mutate(r)
		if r.CacheKey() == base.CacheKey() {
			t.Errorf("mutating %s did not change the cache key", name)
		}
	}

	// Boundary ambiguity: moving a character between adjacent names
	// must change the key (length prefixes prevent concatenation
	// collisions).
	a := testRequest(1)
	a.Table.Workloads[0], a.Table.Workloads[1] = "ab", "c"
	b := testRequest(1)
	b.Table.Workloads[0], b.Table.Workloads[1] = "a", "bc"
	if a.CacheKey() == b.CacheKey() {
		t.Error("length prefixes failed to separate adjacent strings")
	}
}

// TestCacheKeyPinned pins the content address of one fixed case-study
// request. A change to the canonical encoding, or a canonicalVersion
// bump for a change in served bytes, moves this key and must update
// it on purpose.
func TestCacheKeyPinned(t *testing.T) {
	req := caseStudyRequest(t, 7)
	req.K = 4
	key := req.CacheKey()
	const want = "fab2524b9c0f8f249c88afea46ce7e8a612b451c7fb7bb034aa02b155c938eab"
	if got := hex.EncodeToString(key[:]); got != want {
		t.Fatalf("case-study cache key = %s, want %s", got, want)
	}
}

func waitForCond(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestValidateMessages(t *testing.T) {
	r := testRequest(1)
	if err := r.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	r.Table.Rows = r.Table.Rows[:3]
	err := r.Validate()
	var br *BadRequestError
	if !errors.As(err, &br) {
		t.Fatalf("got %T (%v), want *BadRequestError", err, err)
	}
	if br.Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestSweepRangeDefaults(t *testing.T) {
	r := &Request{}
	for _, tc := range []struct {
		kMin, kMax, n    int
		wantMin, wantMax int
	}{
		{0, 0, 8, 2, 8},
		{3, 5, 8, 3, 5},
		{0, 99, 8, 2, 8},
		{2, 0, 4, 2, 4},
	} {
		r.KMin, r.KMax = tc.kMin, tc.kMax
		gotMin, gotMax := r.sweepRange(tc.n)
		if gotMin != tc.wantMin || gotMax != tc.wantMax {
			t.Errorf("sweepRange(%d,%d,n=%d) = [%d,%d], want [%d,%d]",
				tc.kMin, tc.kMax, tc.n, gotMin, gotMax, tc.wantMin, tc.wantMax)
		}
	}
}
