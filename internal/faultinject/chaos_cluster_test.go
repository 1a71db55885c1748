// Cluster-level chaos: a seeded TCP chaos proxy sits between the
// gateway and ONE of its replicas, while the other replica stays
// clean. Every injected fault — dropped connections, stalls, truncated
// and corrupted responses — must resolve through the gateway as a
// retry-to-another-replica or a typed error: never a wrong score,
// never a stranded singleflight follower. Runs with the rest of the
// ChaosService suite under `make chaos-service`
// (go test -race -run ChaosService ./internal/faultinject/).
package faultinject_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hmeans/internal/faultinject"
	"hmeans/internal/gateway"
	"hmeans/internal/service"
)

// startChaosCluster boots a clean replica, a chaotic replica (fronted
// by a seeded proxy), and a gateway over both, configured by cfg with
// the two replicas filled in.
func startChaosCluster(t *testing.T, seed uint64, plan faultinject.ChaosPlan, cfg gateway.Config) (*gateway.Gateway, string, *faultinject.ChaosProxy, string) {
	t.Helper()
	clean := httptest.NewServer(service.New(service.Config{MaxInflight: 4, QueueDepth: 64, CacheSize: 64}).Handler())
	t.Cleanup(clean.Close)
	chaotic := httptest.NewServer(service.New(service.Config{MaxInflight: 4, QueueDepth: 64, CacheSize: 64}).Handler())
	t.Cleanup(chaotic.Close)

	proxy, err := faultinject.NewChaosProxy(chaotic.Listener.Addr().String(), seed, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		var buf bytes.Buffer
		if err := proxy.WriteSchedule(&buf); err == nil {
			t.Logf("injected fault schedule:\n%s", buf.String())
		}
	})

	cfg.Replicas = []string{clean.URL, proxy.URL()}
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return gw, ts.URL, proxy, clean.URL
}

// retryingConfig is the gateway of the wire-fault cases: per-replica
// retries, keep-alives off (truncate/corrupt need one connection per
// request) and a hard client timeout so no fault can hang a dispatch.
func retryingConfig(seed uint64) gateway.Config {
	return gateway.Config{
		Retries:   2,
		RetryBase: time.Millisecond,
		Seed:      seed,
		// High threshold: keep the chaotic replica in rotation so the
		// walk keeps exercising the fault path instead of settling on
		// the clean replica after three failures.
		BreakerThreshold: 1000,
		Client: &http.Client{
			Timeout:   2 * time.Second,
			Transport: &http.Transport{DisableKeepAlives: true},
		},
	}
}

// TestChaosServiceClusterEveryFaultResolves drives payloads through
// the gateway while one replica's wire drops, truncates and corrupts:
// with per-replica retries plus ring failover every request must
// resolve to the byte-identical digest-verified answer — the fault mix
// reroutes work, it never loses or falsifies it.
func TestChaosServiceClusterEveryFaultResolves(t *testing.T) {
	_, gwURL, proxy, cleanURL := startChaosCluster(t, 17, faultinject.ChaosPlan{
		DropPct: 25, TruncatePct: 20, CorruptPct: 20, // stalls have their own case
	}, retryingConfig(17))

	for i := 0; i < 10; i++ {
		body := marshalRequest(t, chaosRequest(uint64(100+i)))
		// Content addressing means any replica's direct answer is THE
		// answer; the clean one is always reachable for the oracle.
		want := postDirect(t, cleanURL, body)

		resp, err := http.Post(gwURL+"/v1/score", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("request %d: gateway transport error: %v\nschedule: %+v", i, err, proxy.Schedule())
		}
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			t.Fatalf("request %d: reading gateway response: %v", i, rerr)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: gateway status %d (%s) — retries + failover must absorb this mix\nschedule: %+v",
				i, resp.StatusCode, raw, proxy.Schedule())
		}
		if err := service.VerifyDigest(resp.Header.Get(service.HeaderDigest), raw); err != nil {
			t.Fatalf("request %d: gateway response failed its digest: %v", i, err)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("request %d: gateway served different bytes than the direct answer", i)
		}
	}
	if len(proxy.Schedule()) == 0 {
		t.Fatal("the chaotic replica never saw a connection — the chaos was a no-op")
	}
}

// TestChaosServiceClusterNoStrandedFollowers fires a concurrent burst
// of one identical payload through the gateway under the same fault
// mix: the singleflight leader's dispatch may be damaged and retried
// or failed over, but every follower must still complete with the same
// byte-identical answer — a fault on the leader's wire must never
// strand the requests coalesced behind it.
func TestChaosServiceClusterNoStrandedFollowers(t *testing.T) {
	_, gwURL, proxy, cleanURL := startChaosCluster(t, 23, faultinject.ChaosPlan{
		DropPct: 30, TruncatePct: 20, CorruptPct: 20,
	}, retryingConfig(23))
	body := marshalRequest(t, chaosRequest(4))
	want := postDirect(t, cleanURL, body)

	const burst = 8
	var wg sync.WaitGroup
	results := make([][]byte, burst)
	codes := make([]int, burst)
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(gwURL+"/v1/score", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], codes[i] = raw, resp.StatusCode
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("burst never completed — a follower is stranded\nschedule: %+v", proxy.Schedule())
	}

	for i := 0; i < burst; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: transport error %v", i, errs[i])
		}
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)\nschedule: %+v", i, codes[i], results[i], proxy.Schedule())
		}
		if !bytes.Equal(results[i], want) {
			t.Fatalf("request %d: bytes differ from the direct answer", i)
		}
	}
}

// TestChaosServiceClusterStallResolvesByLeaseTTL stalls every
// connection to the chaotic replica for several LeaseTTLs, behind a
// gateway whose dispatch client has no timeout of its own (as hmeansgw
// builds it). For a key homed there, the leader and a concurrent burst
// of its followers must all end in one typed 504 from one dispatch,
// by the gateway's clock; that failure takes the replica out of
// rotation, so the next request for the key fails over to the clean
// replica and gets the direct answer's bytes.
func TestChaosServiceClusterStallResolvesByLeaseTTL(t *testing.T) {
	const ttl = 200 * time.Millisecond
	gw, gwURL, proxy, cleanURL := startChaosCluster(t, 29, faultinject.ChaosPlan{
		SlowPct: 100, SlowDelay: 4 * ttl,
	}, gateway.Config{LeaseTTL: ttl, BreakerThreshold: 1})

	var body []byte
	for seed := uint64(1); body == nil; seed++ {
		req := chaosRequest(seed)
		if gw.Ring().Candidates(req.CacheKey())[0] == proxy.URL() {
			body = marshalRequest(t, req)
		}
	}
	want := postDirect(t, cleanURL, body)

	const burst = 6
	var wg sync.WaitGroup
	results := make([][]byte, burst)
	codes := make([]int, burst)
	errs := make([]error, burst)
	start := time.Now()
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(gwURL+"/v1/score", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			results[i], errs[i] = io.ReadAll(resp.Body)
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	if took, limit := time.Since(start), ttl+2*time.Second; took > limit {
		t.Fatalf("the burst took %v, want under %v", took, limit)
	}
	for i := 0; i < burst; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if codes[i] != http.StatusGatewayTimeout || !bytes.Equal(results[i], results[0]) {
			t.Fatalf("request %d: status %d (%s), want the burst's one 504", i, codes[i], results[i])
		}
	}
	if !bytes.Contains(results[0], []byte(`"error":"context deadline exceeded"`)) {
		t.Fatalf("504 body %s, want the typed deadline error", results[0])
	}
	if n := len(proxy.Schedule()); n != 1 {
		t.Fatalf("the stalled replica saw %d connections, want one dispatch", n)
	}

	resp, err := http.Post(gwURL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get(gateway.HeaderReplica) != cleanURL {
		t.Fatalf("after the stall: status %d from %q, want 200 from the clean replica %s", resp.StatusCode, resp.Header.Get(gateway.HeaderReplica), cleanURL)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("the failover served different bytes than the direct answer")
	}
}
