package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hmeans/internal/obs"
	"hmeans/internal/service"
	"hmeans/internal/simbench"
)

// gwTestRequest mirrors the service package's test fixture: two clear
// workload blobs, strictly positive scores. seed varies the payload
// (and therefore the content address).
func gwTestRequest(seed uint64) *service.Request {
	const n, f = 8, 4
	req := &service.Request{
		Config: service.ConfigJSON{Seed: seed},
		Scores: map[string][]float64{"A": make([]float64, n)},
	}
	for i := 0; i < n; i++ {
		req.Table.Workloads = append(req.Table.Workloads, fmt.Sprintf("wl%02d", i))
		row := make([]float64, f)
		for j := 0; j < f; j++ {
			base := 1.0
			if i >= n/2 {
				base = 9.0
			}
			row[j] = base + 0.1*float64(i) + 0.01*float64(j*i)
		}
		req.Table.Rows = append(req.Table.Rows, row)
		req.Scores["A"][i] = 1.0 + 0.25*float64(i)
	}
	for j := 0; j < f; j++ {
		req.Table.Features = append(req.Table.Features, fmt.Sprintf("feat%d", j))
	}
	return req
}

// replicaFixture is one in-process hmeansd behind a real HTTP
// listener.
type replicaFixture struct {
	srv *service.Server
	ts  *httptest.Server
	obs *obs.Observer
}

func startReplica(t *testing.T, cfg service.Config) *replicaFixture {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	srv := service.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &replicaFixture{srv: srv, ts: ts, obs: cfg.Obs}
}

// startCluster boots n replicas and a gateway over them, returning the
// gateway fixture, its HTTP server and the replicas in ring order.
func startCluster(t *testing.T, n int, cfg Config) (*Gateway, *httptest.Server, []*replicaFixture) {
	t.Helper()
	replicas := make([]*replicaFixture, n)
	addrs := make([]string, n)
	for i := range replicas {
		replicas[i] = startReplica(t, service.Config{CacheSize: 8})
		addrs[i] = replicas[i].ts.URL
	}
	cfg.Replicas = addrs
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return gw, ts, replicas
}

func postScore(t *testing.T, url string, req *service.Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postBody(t, url, body)
}

// postBody posts body to url as it is, with its Content-Length.
func postBody(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	return postReader(t, url, bytes.NewReader(body))
}

// postChunked posts body without a declared length: the client cannot
// see the length behind the reader, so it sends the body chunked.
func postChunked(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	return postReader(t, url, io.MultiReader(bytes.NewReader(body)))
}

func postReader(t *testing.T, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/score", "application/json", body)
	if err != nil {
		t.Fatalf("POST /v1/score: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// replicaFor maps a replica base URL back to its fixture.
func replicaFor(t *testing.T, replicas []*replicaFixture, addr string) *replicaFixture {
	t.Helper()
	for _, r := range replicas {
		if r.ts.URL == addr {
			return r
		}
	}
	t.Fatalf("no replica fixture for %s", addr)
	return nil
}

// TestGatewayByteIdentity is the core contract: the bytes a client
// gets through the gateway are exactly the bytes the home replica
// serves directly, digest-verified on both hops, and a repeat through
// the gateway is a cache hit on the same replica.
func TestGatewayByteIdentity(t *testing.T) {
	gw, ts, replicas := startCluster(t, 2, Config{})
	req := gwTestRequest(1)

	r1, viaGW := postScore(t, ts.URL, req)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("gateway: status %d, body %s", r1.StatusCode, viaGW)
	}
	if err := service.VerifyDigest(r1.Header.Get(service.HeaderDigest), viaGW); err != nil {
		t.Fatalf("gateway digest: %v", err)
	}
	home := gw.Ring().Home(req.CacheKey())
	if got := r1.Header.Get(HeaderReplica); got != home {
		t.Fatalf("served by %s, ring home is %s", got, home)
	}
	if got := r1.Header.Get(HeaderRoute); got != RoleLeader {
		t.Fatalf("route = %q, want %q", got, RoleLeader)
	}
	if r1.Header.Get(service.HeaderRequestID) == "" {
		t.Fatal("gateway response missing X-Request-ID")
	}

	// Same request straight at the home replica: byte-identical, and a
	// cache hit — the gateway's first pass warmed exactly this cache.
	r2, direct := postScore(t, replicaFor(t, replicas, home).ts.URL, req)
	if r2.Header.Get("X-Hmeans-Cache") != service.CacheHit {
		t.Fatalf("direct hit status = %q, want %q", r2.Header.Get("X-Hmeans-Cache"), service.CacheHit)
	}
	if !bytes.Equal(viaGW, direct) {
		t.Fatal("gateway bytes differ from direct replica bytes")
	}

	// And a repeat through the gateway is a hit routed to the same home.
	r3, again := postScore(t, ts.URL, req)
	if r3.Header.Get("X-Hmeans-Cache") != service.CacheHit {
		t.Fatalf("gateway repeat cache = %q, want %q", r3.Header.Get("X-Hmeans-Cache"), service.CacheHit)
	}
	if r3.Header.Get(HeaderReplica) != home {
		t.Fatalf("repeat served by %s, want sticky home %s", r3.Header.Get(HeaderReplica), home)
	}
	if !bytes.Equal(viaGW, again) {
		t.Fatal("gateway repeat bytes differ")
	}
}

// TestGatewayFailover kills the home replica: the ring walk must serve
// the request from the survivor and the dead replica's breaker must
// open after enough failures.
func TestGatewayFailover(t *testing.T) {
	o := obs.New()
	gw, ts, replicas := startCluster(t, 2, Config{Obs: o, BreakerThreshold: 2})
	req := gwTestRequest(2)
	home := gw.Ring().Home(req.CacheKey())
	replicaFor(t, replicas, home).ts.Close()

	for i := 0; i < 2; i++ {
		resp, raw := postScore(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, resp.StatusCode, raw)
		}
		if got := resp.Header.Get(HeaderReplica); got == home {
			t.Fatalf("request %d served by the dead home %s", i, got)
		}
	}
	if o.Metrics().Counter("gateway.route.failover").Value() == 0 {
		t.Fatal("failover counter never moved")
	}
	if got := gw.Breakers().Get(home).State(); got != "open" {
		t.Fatalf("dead home breaker state = %q, want open", got)
	}
	// With the breaker open the walk skips the corpse outright.
	resp, _ := postScore(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-open request failed: %d", resp.StatusCode)
	}
	if o.Metrics().Counter("gateway.route.breaker_skip").Value() == 0 {
		t.Fatal("breaker_skip counter never moved")
	}
}

// TestGatewayDrainingReplicaLeavesRotation pins the drain semantics: a
// replica that answers 503-draining is tripped out of rotation
// immediately (no threshold), and traffic flows through the survivor.
func TestGatewayDrainingReplicaLeavesRotation(t *testing.T) {
	gw, ts, replicas := startCluster(t, 2, Config{BreakerThreshold: 5})
	req := gwTestRequest(3)
	home := gw.Ring().Home(req.CacheKey())
	replicaFor(t, replicas, home).srv.BeginDrain()

	resp, raw := postScore(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(HeaderReplica); got == home {
		t.Fatalf("served by the draining home %s", got)
	}
	// One declared drain is enough — no five-failure threshold.
	if got := gw.Breakers().Get(home).State(); got != "open" {
		t.Fatalf("draining replica breaker = %q, want open after one refusal", got)
	}
}

// TestGatewayRelaysBadRequest pins that invalid input answers 400 with
// the same shape a replica gives, and consumes no routing state.
func TestGatewayRelaysBadRequest(t *testing.T) {
	o := obs.New()
	_, ts, _ := startCluster(t, 2, Config{Obs: o})
	req := &service.Request{} // decodes fine, fails Validate
	resp, raw := postScore(t, ts.URL, req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, raw)
	}
	var werr struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &werr); err != nil || werr.Error == "" {
		t.Fatalf("400 body is not the service error shape: %s", raw)
	}
	if o.Metrics().Counter("gateway.lease.leader").Value() != 0 {
		t.Fatal("invalid request consumed a lease")
	}
}

func TestGatewayMethodNotAllowed(t *testing.T) {
	_, ts, _ := startCluster(t, 1, Config{})
	resp, err := http.Get(ts.URL + "/v1/score")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
}

// TestGatewayAllReplicasDown pins the exhausted-walk contract: a typed
// 503 with Retry-After, never a bare 500.
func TestGatewayAllReplicasDown(t *testing.T) {
	_, ts, replicas := startCluster(t, 2, Config{})
	for _, r := range replicas {
		r.ts.Close()
	}
	resp, raw := postScore(t, ts.URL, gwTestRequest(4))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (body %s)", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") != service.RetryAfter {
		t.Fatalf("Retry-After = %q, want %q", resp.Header.Get("Retry-After"), service.RetryAfter)
	}
}

// TestGatewayDrain pins the gateway's own drain: scoring refused with
// 503 + Retry-After, /healthz still 200.
func TestGatewayDrain(t *testing.T) {
	gw, ts, _ := startCluster(t, 1, Config{})
	gw.BeginDrain()
	resp, _ := postScore(t, ts.URL, gwTestRequest(5))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("score during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != service.RetryAfter {
		t.Fatal("drain refusal missing Retry-After")
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %d, want 200", hr.StatusCode)
	}
	rr, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", rr.StatusCode)
	}
}

// TestGatewayReadyzQuorum pins the aggregation: with both replicas up
// the gateway is ready; drain one and a 2-of-2 quorum fails while a
// 1-of-2 quorum holds.
func TestGatewayReadyzQuorum(t *testing.T) {
	readyz := func(t *testing.T, url string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(url + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	_, ts, replicas := startCluster(t, 2, Config{Quorum: 2})
	code, body := readyz(t, ts.URL)
	if code != http.StatusOK {
		t.Fatalf("all up, quorum 2: readyz %d (%v)", code, body)
	}
	replicas[0].srv.BeginDrain()
	code, body = readyz(t, ts.URL)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("one draining, quorum 2: readyz %d, want 503 (%v)", code, body)
	}
	if up, _ := body["up"].(float64); up != 1 {
		t.Fatalf("up = %v, want 1", body["up"])
	}

	gw1, ts1, replicas1 := startCluster(t, 2, Config{Quorum: 1})
	replicas1[0].srv.BeginDrain()
	if code, body := readyz(t, ts1.URL); code != http.StatusOK {
		t.Fatalf("one draining, quorum 1: readyz %d, want 200 (%v)", code, body)
	}
	_ = gw1
}

// TestGatewayRequestIDPropagation proves the 2-hop correlation story:
// the client's X-Request-ID is echoed by the gateway AND forwarded to
// the replica, which stamps it on its own access log.
func TestGatewayRequestIDPropagation(t *testing.T) {
	var logBuf syncBuffer
	replica := func() *replicaFixture {
		srv := service.New(service.Config{AccessLog: newJSONLogger(&logBuf)})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return &replicaFixture{srv: srv, ts: ts}
	}()
	gw, err := New(Config{Replicas: []string{replica.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)

	const id = "cluster-test.42"
	body, _ := json.Marshal(gwTestRequest(6))
	hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/score", bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(service.HeaderRequestID, id)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(service.HeaderRequestID); got != id {
		t.Fatalf("gateway echoed %q, want %q", got, id)
	}
	if !strings.Contains(logBuf.String(), fmt.Sprintf("%q:%q", "request_id", id)) {
		t.Fatalf("replica access log does not carry the client's ID:\n%s", logBuf.String())
	}
}

// countingBackend is a Dial-seam backend that counts dispatches and
// can hold them open.
type countingBackend struct {
	addr  string
	calls atomic.Int32
	gate  chan struct{} // dispatches block on it when non-nil
}

func (b *countingBackend) Post(ctx context.Context, body []byte) ([]byte, http.Header, error) {
	b.calls.Add(1)
	if b.gate != nil {
		select {
		case <-b.gate:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	return []byte(`{"from":"` + b.addr + `"}`), cacheHeader(service.CacheMiss), nil
}

// TestGatewayCrossReplicaSingleflight is the lease proof at the HTTP
// layer: a burst of identical requests produces exactly one backend
// dispatch; everyone else follows the lease and gets the same bytes.
func TestGatewayCrossReplicaSingleflight(t *testing.T) {
	o := obs.New()
	backends := map[string]*countingBackend{}
	var mu sync.Mutex
	gate := make(chan struct{})
	gw, err := New(Config{
		Replicas: []string{"http://b0", "http://b1"},
		Obs:      o,
		Dial: func(addr string) service.Backend {
			mu.Lock()
			defer mu.Unlock()
			b := &countingBackend{addr: addr, gate: gate}
			backends[addr] = b
			return b
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)

	const burst = 6
	body, _ := json.Marshal(gwTestRequest(7))
	var wg sync.WaitGroup
	results := make([][]byte, burst)
	codes := make([]int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			results[i], codes[i] = buf.Bytes(), resp.StatusCode
		}(i)
	}
	// Wait until the leader is inside the backend and the rest are
	// parked as followers, then release everyone at once.
	waitFor(t, func() bool { return gw.leases.waiting.Load() == burst-1 })
	close(gate)
	wg.Wait()

	var total int32
	mu.Lock()
	for _, b := range backends {
		total += b.calls.Load()
	}
	mu.Unlock()
	if total != 1 {
		t.Fatalf("%d backend dispatches for %d identical requests, want 1", total, burst)
	}
	for i := 0; i < burst; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("request %d got different bytes", i)
		}
	}
	if o.Metrics().Counter("gateway.lease.leader").Value() != 1 {
		t.Fatalf("leader counter = %d, want 1", o.Metrics().Counter("gateway.lease.leader").Value())
	}
}

// TestGatewayLeaseTakeoverByteIdentical drives the leader-death drill
// through the full HTTP stack: the leader's backend hangs past the
// lease TTL, a follower takes over, dispatches for itself, and gets
// byte-identical bytes (content addressing makes both dispatches
// agree). No follower is stranded.
func TestGatewayLeaseTakeoverByteIdentical(t *testing.T) {
	o := obs.New()
	stuck := make(chan struct{})
	var dialCount atomic.Int32
	gw, err := New(Config{
		Replicas: []string{"http://b0", "http://b1"},
		LeaseTTL: 50 * time.Millisecond,
		Obs:      o,
		Dial: func(addr string) service.Backend {
			return backendFunc(func(ctx context.Context, body []byte) ([]byte, http.Header, error) {
				if dialCount.Add(1) == 1 {
					// First dispatch: the doomed leader. Hang far past
					// the TTL, then answer anyway.
					select {
					case <-stuck:
					case <-ctx.Done():
						return nil, nil, ctx.Err()
					}
				}
				return []byte(`{"score":1}`), cacheHeader(service.CacheMiss), nil
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)

	body, _ := json.Marshal(gwTestRequest(8))
	type res struct {
		raw  []byte
		code int
	}
	leaderDone := make(chan res, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
		if err != nil {
			leaderDone <- res{}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		leaderDone <- res{raw: buf.Bytes(), code: resp.StatusCode}
	}()
	waitFor(t, func() bool { return dialCount.Load() == 1 })

	// The follower arrives while the leader hangs; past the TTL it
	// takes over and answers without the leader.
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var followerBuf bytes.Buffer
	followerBuf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("takeover request: status %d, body %s", resp.StatusCode, followerBuf.Bytes())
	}
	if got := resp.Header.Get(HeaderRoute); got != RoleTakeover {
		t.Fatalf("route = %q, want %q", got, RoleTakeover)
	}

	// Unstick the leader: its own request must still complete with the
	// same bytes — nobody is stranded, nothing diverges.
	close(stuck)
	select {
	case lr := <-leaderDone:
		if lr.code != http.StatusOK {
			t.Fatalf("stuck leader finished with status %d", lr.code)
		}
		if !bytes.Equal(lr.raw, followerBuf.Bytes()) {
			t.Fatalf("leader bytes %s != takeover bytes %s", lr.raw, followerBuf.Bytes())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stuck leader never completed")
	}
	if o.Metrics().Counter("gateway.lease.takeover").Value() != 1 {
		t.Fatal("takeover counter never moved")
	}
}

// TestGatewayFollowerOutlivesCancelledLeader: when a lease leader's
// client leaves mid-dispatch, a parked follower whose own client is
// still waiting dispatches itself (route takeover) and gets the
// replica's answer, not the leader's context error.
func TestGatewayFollowerOutlivesCancelledLeader(t *testing.T) {
	var dispatches atomic.Int32
	gw, err := New(Config{
		Replicas: []string{"http://b0"},
		LeaseTTL: time.Minute,
		Dial: func(addr string) service.Backend {
			return backendFunc(func(ctx context.Context, body []byte) ([]byte, http.Header, error) {
				if dispatches.Add(1) == 1 {
					// The leader's dispatch: held until its client leaves.
					<-ctx.Done()
					return nil, nil, ctx.Err()
				}
				return []byte(`{"score":1}`), cacheHeader(service.CacheMiss), nil
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	body, _ := json.Marshal(gwTestRequest(9))

	lctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(lctx, http.MethodPost, ts.URL+"/v1/score", bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		leaderDone <- err
	}()
	waitFor(t, func() bool { return dispatches.Load() == 1 })

	type result struct {
		code  int
		route string
		raw   []byte
		err   error
	}
	followerDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
		if err != nil {
			followerDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		followerDone <- result{resp.StatusCode, resp.Header.Get(HeaderRoute), raw, err}
	}()
	waitFor(t, func() bool { return gw.leases.waiting.Load() == 1 })

	cancel()
	if err := <-leaderDone; err == nil {
		t.Fatal("cancelled leader's request succeeded")
	}
	select {
	case got := <-followerDone:
		if got.err != nil {
			t.Fatal(got.err)
		}
		if got.code != http.StatusOK {
			t.Fatalf("follower: status %d, body %s", got.code, got.raw)
		}
		if got.route != RoleTakeover {
			t.Fatalf("follower route = %q, want %q", got.route, RoleTakeover)
		}
		if string(got.raw) != `{"score":1}` {
			t.Fatalf("follower body %s", got.raw)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower never answered")
	}
	if n := dispatches.Load(); n != 2 {
		t.Fatalf("%d dispatches, want 2", n)
	}
}

// backendFunc adapts a function to service.Backend.
type backendFunc func(ctx context.Context, body []byte) ([]byte, http.Header, error)

func (f backendFunc) Post(ctx context.Context, body []byte) ([]byte, http.Header, error) {
	return f(ctx, body)
}

// cacheHeader is a stub replica's response header: its cache status.
func cacheHeader(status string) http.Header {
	h := http.Header{}
	h.Set(service.HeaderCache, status)
	return h
}

// TestGatewayRingEndpoint pins the /ring debug surface: every replica
// listed with an arc share and a breaker state.
func TestGatewayRingEndpoint(t *testing.T) {
	gw, ts, _ := startCluster(t, 3, Config{})
	resp, err := http.Get(ts.URL + "/ring")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Replicas []struct {
			Replica string  `json:"replica"`
			Share   float64 `json:"share"`
			Breaker string  `json:"breaker"`
		} `json:"replicas"`
		VNodes int `json:"vnodes"`
		Quorum int `json:"quorum"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Replicas) != 3 {
		t.Fatalf("%d replicas in /ring, want 3", len(body.Replicas))
	}
	if body.VNodes != DefaultVNodes {
		t.Fatalf("vnodes = %d, want %d", body.VNodes, DefaultVNodes)
	}
	if body.Quorum != 2 {
		t.Fatalf("quorum = %d, want majority 2", body.Quorum)
	}
	var total float64
	for _, r := range body.Replicas {
		if r.Breaker != "closed" {
			t.Fatalf("replica %s breaker = %q, want closed", r.Replica, r.Breaker)
		}
		total += r.Share
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("arc shares sum to %v, want 1", total)
	}
	_ = gw
}

// TestGatewayConfigValidation pins constructor errors.
func TestGatewayConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no replicas accepted")
	}
	if _, err := New(Config{Replicas: []string{"a"}, Quorum: 2}); err == nil {
		t.Fatal("quorum above replica count accepted")
	}
}

// TestGatewayForwardsClientBytes: the replica receives exactly the
// bytes the client sent, not a re-encoding of the decoded request.
func TestGatewayForwardsClientBytes(t *testing.T) {
	var mu sync.Mutex
	var received [][]byte
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		received = append(received, b)
		mu.Unlock()
		raw := []byte("{\"score\":1}\n")
		w.Header().Set(service.HeaderCache, service.CacheMiss)
		w.Header().Set(service.HeaderDigest, service.Digest(raw))
		w.Write(raw)
	}))
	t.Cleanup(stub.Close)
	gw, err := New(Config{Replicas: []string{stub.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)

	body, err := json.MarshalIndent(gwTestRequest(9), "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	if resp, raw := postBody(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, raw)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(received) != 1 || !bytes.Equal(received[0], body) {
		t.Fatalf("replica received %d bodies; first differs from the client's bytes", len(received))
	}
}

// TestGatewayAliasReplayRoutesHome: a byte-identical replay is keyed
// from the gateway's alias table, without a second decode, and is
// routed to the same home and leased as leader like the first.
func TestGatewayAliasReplayRoutesHome(t *testing.T) {
	o := obs.New()
	var mu sync.Mutex
	var dispatched []string
	gw, err := New(Config{
		Replicas: []string{"http://b0", "http://b1", "http://b2"},
		Obs:      o,
		Dial: func(addr string) service.Backend {
			return backendFunc(func(ctx context.Context, body []byte) ([]byte, http.Header, error) {
				mu.Lock()
				dispatched = append(dispatched, addr)
				mu.Unlock()
				return []byte(`{"score":1}`), cacheHeader(service.CacheHit), nil
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)

	req := gwTestRequest(10)
	home := gw.Ring().Home(req.CacheKey())
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for i, wantAlias := range []int64{0, 1} {
		resp, raw := postBody(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, raw)
		}
		if got := resp.Header.Get(HeaderRoute); got != RoleLeader {
			t.Fatalf("request %d: route %q, want %q", i, got, RoleLeader)
		}
		if got := resp.Header.Get(HeaderReplica); got != home {
			t.Fatalf("request %d: served by %s, ring home is %s", i, got, home)
		}
		if got := o.Metrics().Counter("gateway.alias.hit").Value(); got != wantAlias {
			t.Fatalf("after request %d: gateway.alias.hit = %d, want %d", i, got, wantAlias)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(dispatched) != 2 || dispatched[0] != home || dispatched[1] != home {
		t.Fatalf("dispatched to %v, want the home %s twice", dispatched, home)
	}
	if got := o.Metrics().Counter("gateway.lease.leader").Value(); got != 2 {
		t.Fatalf("gateway.lease.leader = %d, want 2", got)
	}
}

// TestGatewayBodyLimitCoversWholeBody: MaxBodyBytes bounds the whole
// body, not just its first JSON value, and a refused body reaches no
// replica.
func TestGatewayBodyLimitCoversWholeBody(t *testing.T) {
	backend := &countingBackend{addr: "http://b0"}
	body, err := json.Marshal(gwTestRequest(11))
	if err != nil {
		t.Fatal(err)
	}
	gw, err := New(Config{
		Replicas:     []string{"http://b0"},
		MaxBodyBytes: int64(len(body)) + 16,
		Dial:         func(string) service.Backend { return backend },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)

	padded := append(append([]byte{}, body...), strings.Repeat(" ", 4096)...)
	resp, raw := postBody(t, ts.URL, padded)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400 (%s)", resp.StatusCode, raw)
	}
	var werr struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &werr); err != nil || werr.Error != "decoding request: http: request body too large" {
		t.Fatalf("oversized body: error %q (%v)", werr.Error, err)
	}
	if n := backend.calls.Load(); n != 0 {
		t.Fatalf("oversized body was dispatched %d times", n)
	}
	if resp, raw := postBody(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("body within the limit: status %d (%s)", resp.StatusCode, raw)
	}
}

// TestGatewayDeclaredLengthCapsPresize: a body that declares 64 MiB
// and carries 10 bytes gets the usual decoding 400 from the gateway,
// reaches no replica, and costs the gateway less than 1 MiB of
// allocation, not the declared length.
func TestGatewayDeclaredLengthCapsPresize(t *testing.T) {
	backend := &countingBackend{addr: "http://b0"}
	gw, err := New(Config{
		Replicas: []string{"http://b0"},
		Dial:     func(string) service.Backend { return backend },
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := gw.Handler()
	r := httptest.NewRequest(http.MethodPost, "/v1/score", strings.NewReader("0123456789"))
	r.ContentLength = 64 << 20
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mux.ServeHTTP(w, r)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `"decoding request: `) {
		t.Fatalf("status %d (%s), want a decoding 400", w.Code, w.Body.String())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a 10-byte body declaring 64 MiB allocated %d bytes", grew)
	}
	if n := backend.calls.Load(); n != 0 {
		t.Fatalf("refused body was dispatched %d times", n)
	}
}

// caseStudyBody is the paper's 13-workload case study as a request
// body of about 46.6 KB: SAR counters sampled on machine A with
// measured speedup vectors A and B.
func caseStudyBody(t *testing.T) []byte {
	t.Helper()
	const seed = 7
	ws, _, err := simbench.CalibratedSuite()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := simbench.SARTable(ws, simbench.MachineA(), simbench.SARSpec{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	req := &service.Request{
		Config: service.ConfigJSON{Seed: seed},
		Table:  service.TableJSON{Workloads: tab.Workloads, Features: tab.Features, Rows: tab.Rows},
		Scores: map[string][]float64{},
	}
	for name, m := range map[string]simbench.Machine{"A": simbench.MachineA(), "B": simbench.MachineB()} {
		if req.Scores[name], err = simbench.MeasuredSpeedups(ws, m, simbench.Reference(), 10, seed); err != nil {
			t.Fatal(err)
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestGatewayChunkedBodyMatchesContentLength: a case-study body of
// unknown length (chunked) is read into the same bytes as one with a
// Content-Length. Sent over real listeners through a gateway to a
// replica, it gets the same response, key and digest as the sized
// body sent to another cluster. Its replay hits the alias on both
// hops, which adds read bytes and no decode bytes on either; and sent
// chunked straight to the home replica, it hits the alias that the
// gateway's sized forward recorded there.
func TestGatewayChunkedBodyMatchesContentLength(t *testing.T) {
	body := caseStudyBody(t)
	n := int64(len(body))
	_, sized, _ := startCluster(t, 2, Config{})
	wantResp, want := postBody(t, sized.URL, body)
	if wantResp.StatusCode != http.StatusOK {
		t.Fatalf("sized body: status %d (%s)", wantResp.StatusCode, want)
	}

	o := obs.New()
	gw, _, replicas := startCluster(t, 2, Config{Obs: o})
	var mu sync.Mutex
	var declared []int64
	mux := gw.Handler()
	chunked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		declared = append(declared, r.ContentLength)
		mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(chunked.Close)

	// Bytes read and decoded: the gateway's, then the home replica's.
	type byteCounts struct{ gwRead, gwDecoded, read, decoded int64 }
	var home *replicaFixture
	counted := func() byteCounts {
		m := home.obs.Metrics()
		return byteCounts{
			o.Metrics().Counter("gateway.read.bytes").Value(), o.Metrics().Counter("gateway.decode.bytes").Value(),
			m.Counter("service.read.bytes").Value(), m.Counter("service.decode.bytes").Value(),
		}
	}
	for i, step := range []struct {
		cache string
		bytes byteCounts
		alias int64
	}{
		{service.CacheMiss, byteCounts{n, n, n, n}, 0},
		{service.CacheHit, byteCounts{2 * n, n, 2 * n, n}, 1},
	} {
		resp, got := postChunked(t, chunked.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("chunked request %d: status %d (%s)", i, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("chunked request %d: response differs from the sized body's", i)
		}
		for _, h := range []string{"X-Hmeans-Key", service.HeaderDigest} {
			if resp.Header.Get(h) != wantResp.Header.Get(h) {
				t.Fatalf("chunked request %d: %s %q, sized body %q", i, h, resp.Header.Get(h), wantResp.Header.Get(h))
			}
		}
		if got := resp.Header.Get(service.HeaderCache); got != step.cache {
			t.Fatalf("chunked request %d: cache %q, want %q", i, got, step.cache)
		}
		home = replicaFor(t, replicas, resp.Header.Get(HeaderReplica))
		if got := counted(); got != step.bytes {
			t.Fatalf("after chunked request %d: bytes read/decoded %+v, want %+v", i, got, step.bytes)
		}
		gwAlias := o.Metrics().Counter("gateway.alias.hit").Value()
		replicaAlias := home.obs.Metrics().Counter("service.alias.hit").Value()
		if gwAlias != step.alias || replicaAlias != step.alias {
			t.Fatalf("after chunked request %d: alias hits gateway %d, home replica %d; want %d on both", i, gwAlias, replicaAlias, step.alias)
		}
	}
	mu.Lock()
	seen := slices.Clone(declared)
	mu.Unlock()
	if !slices.Equal(seen, []int64{-1, -1}) {
		t.Fatalf("gateway saw declared lengths %v, want -1 (chunked) twice", seen)
	}

	resp, got := postChunked(t, home.ts.URL, body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("chunked body straight to the home replica: status %d, same bytes %v", resp.StatusCode, bytes.Equal(got, want))
	}
	if n := home.obs.Metrics().Counter("service.alias.hit").Value(); n != 2 {
		t.Fatalf("chunked body straight to the home replica: alias hits %d, want 2", n)
	}
}
