package service

import (
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"hmeans/internal/obs"
)

// TestShedSustainedOverload holds the worker pool saturated for many
// consecutive rounds — not the one-shot burst the PR 4 stress test
// used — and asserts the shedding contract end to end: every response
// is 200 or 429, every 429 carries a well-formed integer Retry-After
// matching the exported service.RetryAfter contract, every round
// actually sheds, and the queue accounting drains back to zero
// between rounds (no leaked waiter slots that would turn sustained
// load into permanent 429s). Saturation is deterministic, not a
// timing race: each round's anchors block in the compute hook, so they
// hold every pool slot until each burst request has either been
// answered or sits in the queue, whatever the speed of the pipeline or
// the CPU count. Runs under -race in CI via the race job.
func TestShedSustainedOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained overload test skipped in -short mode")
	}
	const (
		maxInflight = 2
		queueDepth  = 2
		rounds      = 5
		burst       = 12 // per round; far beyond pool+queue
		// anchorSeed marks the anchors' requests: the burst's seeds
		// stay below it.
		anchorSeed = 1000
	)
	// A deployed daemon is never single-threaded; on a 1-CPU CI box
	// GOMAXPROCS=1 would let each handler run to completion and the
	// pool would never fill. Timeshare a few Ps so concurrency is
	// real.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.NumCPU())))
	o := obs.New()
	srv, ts := newTestServer(t, Config{
		MaxInflight: maxInflight,
		QueueDepth:  queueDepth,
		CacheSize:   0, // every request must contend for a slot
		Obs:         o,
	})
	// The hook runs inside the pool slot: an anchor waits there on its
	// round's gate, and every other request passes straight through.
	var gate atomic.Pointer[chan struct{}]
	srv.computeHook = func(req *Request) {
		if req.Config.Seed >= anchorSeed {
			<-*gate.Load()
		}
	}
	// A failed round must not strand its anchors: the server's Close
	// waits for their handlers. This cleanup runs before that one.
	t.Cleanup(func() {
		if g := gate.Load(); g != nil {
			select {
			case <-*g:
			default:
				close(*g)
			}
		}
	})

	var ok, shed int
	for round := 0; round < rounds; round++ {
		release := make(chan struct{})
		gate.Store(&release)
		// Fill every pool slot with a blocked computation, and do not
		// burst until the pool is provably full.
		var anchors sync.WaitGroup
		for a := 0; a < maxInflight; a++ {
			anchors.Add(1)
			go func(a int) {
				defer anchors.Done()
				req := testRequest(uint64(anchorSeed + round*maxInflight + a))
				r, raw := postScore(t, ts.URL, req)
				if r.StatusCode != http.StatusOK {
					t.Errorf("round %d: anchor %d got %d (body %s)", round, a, r.StatusCode, raw)
				}
			}(a)
		}
		waitForCond(t, func() bool { return srv.Inflight() == maxInflight }, "pool saturated")

		type reply struct {
			status     int
			retryAfter string
			body       []byte
		}
		replies := make(chan reply, burst)
		var replied atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < burst; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				// Distinct payloads: neither the cache nor the
				// coalescing group may absorb the load this test is
				// about.
				req := testRequest(uint64(1 + round*burst + c))
				r, raw := postScore(t, ts.URL, req)
				replied.Add(1)
				replies <- reply{r.StatusCode, r.Header.Get("Retry-After"), raw}
			}(c)
		}
		// The anchors hold the pool until every burst request has been
		// shed (and answered) or queued; only then may the queue drain.
		waitForCond(t, func() bool { return replied.Load()+srv.Queued() == burst }, "burst shed or queued")
		close(release)
		wg.Wait()
		close(replies)
		anchors.Wait()

		roundShed := 0
		for rep := range replies {
			switch rep.status {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				shed++
				roundShed++
				secs, err := strconv.Atoi(rep.retryAfter)
				if err != nil || secs < 1 {
					t.Fatalf("round %d: 429 with malformed Retry-After %q", round, rep.retryAfter)
				}
				if rep.retryAfter != RetryAfter {
					t.Fatalf("round %d: Retry-After %q diverges from the exported contract %q",
						round, rep.retryAfter, RetryAfter)
				}
			default:
				t.Fatalf("round %d: status %d under overload (body %s) — only 200 or 429 are acceptable",
					round, rep.status, rep.body)
			}
		}
		// With the pool full, at most queueDepth of the burst may
		// queue; the rest must have been shed at the door.
		if want := burst - queueDepth; roundShed < want {
			t.Fatalf("round %d: %d shed, want >= %d (pool was provably full)", round, roundShed, want)
		}
		// The round is fully drained; a non-zero queue here would be a
		// leaked waiter that eats capacity for every later round.
		if q := srv.Queued(); q != 0 {
			t.Fatalf("round %d: %d queued callers after the burst drained", round, q)
		}
	}
	if ok == 0 {
		t.Fatal("every burst request was shed — the queue admitted nothing across all rounds")
	}
	if got := o.Metrics().Counter("service.rejected").Value(); got != int64(shed) {
		t.Errorf("service.rejected = %d, want %d observed 429s", got, shed)
	}
}
