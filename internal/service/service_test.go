package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hmeans/internal/core"
	"hmeans/internal/obs"
	"hmeans/internal/simbench"
)

// testRequest builds a small but non-degenerate request: two clear
// workload blobs so clustering is stable, strictly positive scores.
// seed varies the SOM training, giving cheap distinct payloads.
func testRequest(seed uint64) *Request {
	const n, f = 8, 4
	req := &Request{
		Config: ConfigJSON{Seed: seed},
		Scores: map[string][]float64{"A": make([]float64, n), "B": make([]float64, n)},
	}
	for i := 0; i < n; i++ {
		req.Table.Workloads = append(req.Table.Workloads, fmt.Sprintf("wl%02d", i))
		row := make([]float64, f)
		for j := 0; j < f; j++ {
			base := 1.0
			if i >= n/2 {
				base = 9.0 // second blob far away
			}
			row[j] = base + 0.1*float64(i) + 0.01*float64(j*i)
		}
		req.Table.Rows = append(req.Table.Rows, row)
		req.Scores["A"][i] = 1.0 + 0.25*float64(i)
		req.Scores["B"][i] = 2.0 + 0.5*float64(i)
	}
	for j := 0; j < f; j++ {
		req.Table.Features = append(req.Table.Features, fmt.Sprintf("feat%d", j))
	}
	return req
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	srv := New(cfg)
	mux := srv.Handler()
	cfg.Obs.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return srv, ts
}

func postScore(t *testing.T, url string, req *Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/score: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, buf.Bytes()
}

func TestScoreMissThenHitBitIdentical(t *testing.T) {
	o := obs.New()
	_, ts := newTestServer(t, Config{CacheSize: 8, Obs: o})
	req := testRequest(1)

	r1, raw1 := postScore(t, ts.URL, req)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d, body %s", r1.StatusCode, raw1)
	}
	if got := r1.Header.Get("X-Hmeans-Cache"); got != CacheMiss {
		t.Fatalf("first request cache status = %q, want %q", got, CacheMiss)
	}
	r2, raw2 := postScore(t, ts.URL, req)
	if got := r2.Header.Get("X-Hmeans-Cache"); got != CacheHit {
		t.Fatalf("second request cache status = %q, want %q", got, CacheHit)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("cache hit is not bit-identical to the cold response")
	}
	if r1.Header.Get("X-Hmeans-Key") != r2.Header.Get("X-Hmeans-Key") {
		t.Fatalf("same payload produced different keys")
	}

	// A cold recomputation on a cache-less server must also be
	// bit-identical: the canonical response encoding is what the
	// cache's correctness rests on.
	_, ts2 := newTestServer(t, Config{CacheSize: 0})
	r3, raw3 := postScore(t, ts2.URL, req)
	if got := r3.Header.Get("X-Hmeans-Cache"); got != CacheMiss {
		t.Fatalf("cache-less server status = %q, want %q", got, CacheMiss)
	}
	if !bytes.Equal(raw1, raw3) {
		t.Fatalf("recomputed response differs from the original cold response")
	}

	if hits := o.Metrics().Counter("service.cache.hit").Value(); hits != 1 {
		t.Fatalf("cache.hit counter = %d, want 1", hits)
	}
	if misses := o.Metrics().Counter("service.cache.miss").Value(); misses != 1 {
		t.Fatalf("cache.miss counter = %d, want 1", misses)
	}
}

// caseStudyRequest is the paper's 13-workload case study: SAR
// counters sampled on machine A with measured speedup vectors A and B.
func caseStudyRequest(t *testing.T, seed uint64) *Request {
	t.Helper()
	ws, _, err := simbench.CalibratedSuite()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := simbench.SARTable(ws, simbench.MachineA(), simbench.SARSpec{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{
		Config: ConfigJSON{Seed: seed},
		Table:  TableJSON{Workloads: tab.Workloads, Features: tab.Features, Rows: tab.Rows},
		Scores: map[string][]float64{},
	}
	for name, m := range map[string]simbench.Machine{"A": simbench.MachineA(), "B": simbench.MachineB()} {
		if req.Scores[name], err = simbench.MeasuredSpeedups(ws, m, simbench.Reference(), 10, seed); err != nil {
			t.Fatal(err)
		}
	}
	return req
}

// suiteRequest is an n-workload synthetic suite of 8 blobs with one
// positive score vector.
func suiteRequest(n int, seed uint64) *Request {
	const dims = 12
	pts := simbench.SyntheticSpec{N: n, Dims: dims, Clusters: 8, Seed: seed}.Points()
	req := &Request{
		Config: ConfigJSON{Seed: seed},
		Scores: map[string][]float64{"A": make([]float64, n)},
	}
	for j := 0; j < dims; j++ {
		req.Table.Features = append(req.Table.Features, fmt.Sprintf("c%02d", j))
	}
	for i, p := range pts {
		req.Table.Workloads = append(req.Table.Workloads, fmt.Sprintf("w%03d", i))
		req.Table.Rows = append(req.Table.Rows, []float64(p))
		req.Scores["A"][i] = 1 + float64(i%8)/4 + float64(i)/float64(4*n)
	}
	return req
}

// TestServedBytesIndependentOfParallelism pins that the deprecated
// Config.Parallelism stays inert: served bytes depend only on the
// request. Replicas configured with 1 and 2 score SOM requests with
// hard and soft placement: the case study (brute BMU search) and a
// 200-workload suite past the BMU auto threshold (pruned BMU search).
func TestServedBytesIndependentOfParallelism(t *testing.T) {
	_, serial := newTestServer(t, Config{Parallelism: 1})
	_, parallel := newTestServer(t, Config{Parallelism: 2})
	for _, in := range []struct {
		name string
		req  *Request
	}{
		{"case study", caseStudyRequest(t, 3)},
		{"suite n=200", suiteRequest(200, 5)},
	} {
		for _, soft := range []bool{false, true} {
			in.req.Config.SoftPlacement = soft
			r1, raw1 := postScore(t, serial.URL, in.req)
			r2, raw2 := postScore(t, parallel.URL, in.req)
			if r1.StatusCode != http.StatusOK || r2.StatusCode != http.StatusOK {
				t.Fatalf("%s soft=%v: status %d / %d, bodies %s / %s", in.name, soft, r1.StatusCode, r2.StatusCode, raw1, raw2)
			}
			if !bytes.Equal(raw1, raw2) {
				t.Fatalf("%s soft=%v: Parallelism 2 response differs from Parallelism 1", in.name, soft)
			}
		}
	}
}

func TestScoreResponseShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := testRequest(1)
	req.K = 2
	r, raw := postScore(t, ts.URL, req)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", r.StatusCode, raw)
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	n := len(req.Table.Workloads)
	if len(resp.Workloads) != n || len(resp.Positions) != n {
		t.Fatalf("got %d workloads / %d positions, want %d", len(resp.Workloads), len(resp.Positions), n)
	}
	if resp.SOM == nil || resp.SOM.Rows < 2 || resp.SOM.Cols < 2 {
		t.Fatalf("missing or degenerate SOM block: %+v", resp.SOM)
	}
	if resp.Dendrogram.N != n || len(resp.Dendrogram.Merges) != n-1 {
		t.Fatalf("dendrogram has %d leaves / %d merges, want %d / %d",
			resp.Dendrogram.N, len(resp.Dendrogram.Merges), n, n-1)
	}
	if resp.Cut.K != 2 || len(resp.Cut.Labels) != n || len(resp.Cut.Members) != 2 {
		t.Fatalf("cut = %+v, want k=2 over %d workloads", resp.Cut, n)
	}
	if resp.RecommendedK < 2 || resp.RecommendedK > n {
		t.Fatalf("recommended_k = %d out of range", resp.RecommendedK)
	}
	// Sweep 2..n for both vectors, sorted by (k, vector).
	if want := (n - 1) * 2; len(resp.Means) != want {
		t.Fatalf("got %d means entries, want %d", len(resp.Means), want)
	}
	if resp.Means[0].K != 2 || resp.Means[0].Vector != "A" || resp.Means[1].Vector != "B" {
		t.Fatalf("means not sorted by (k, vector): %+v", resp.Means[:2])
	}
	for _, m := range resp.Means {
		if !(m.HGM > 0) || !(m.HAM > 0) || !(m.HHM > 0) {
			t.Fatalf("non-positive mean at k=%d vector=%s: %+v", m.K, m.Vector, m)
		}
		// AM-GM-HM inequality sanity on the hierarchical variants.
		if m.HAM < m.HGM-1e-9 || m.HGM < m.HHM-1e-9 {
			t.Fatalf("mean inequality violated at k=%d vector=%s: %+v", m.K, m.Vector, m)
		}
	}
	if len(resp.Plain) != 2 || resp.Plain[0].Vector != "A" || resp.Plain[1].Vector != "B" {
		t.Fatalf("plain means malformed: %+v", resp.Plain)
	}
}

func TestScoreBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Finite values that pass Validate, but f1's variance overflows to
	// +Inf and w1's deviation to −Inf, so w1's z-score would be NaN:
	// the pipeline must reject the table, not fail on it (500) or
	// train a map on it (200).
	overflow := func(r *Request) {
		r.Table.Workloads = []string{"w0", "w1", "w2", "w3"}
		r.Table.Features = []string{"f1", "f2"}
		r.Table.Rows = [][]float64{{1.7e308, 1}, {-1.7e308, 2}, {1.7e308, 3}, {0, 4}}
		r.Scores = map[string][]float64{"A": {1, 2, 3, 4}}
	}
	cases := []struct {
		name   string
		mutate func(*Request)
	}{
		{"no workloads", func(r *Request) { r.Table.Workloads = nil; r.Table.Rows = nil }},
		{"ragged row", func(r *Request) { r.Table.Rows[0] = r.Table.Rows[0][:2] }},
		{"score length mismatch", func(r *Request) { r.Scores["A"] = r.Scores["A"][:3] }},
		{"non-positive score", func(r *Request) { r.Scores["A"][0] = 0 }},
		{"unknown kind", func(r *Request) { r.Config.Kind = "widgets" }},
		{"k beyond n", func(r *Request) { r.K = 99 }},
		{"inverted sweep", func(r *Request) { r.KMin = 5; r.KMax = 3 }},
		{"overflowing standardization", overflow},
		{"overflowing standardization, skip_som", func(r *Request) { overflow(r); r.Config.SkipSOM = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := testRequest(1)
			tc.mutate(req)
			r, body := postScore(t, ts.URL, req)
			if r.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", r.StatusCode, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q is not the {\"error\": ...} shape", body)
			}
		})
	}

	t.Run("malformed JSON", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("unknown field", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader(`{"tabel": {}}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("GET not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/score")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})
}

func TestScoreDeadline504(t *testing.T) {
	o := obs.New()
	_, ts := newTestServer(t, Config{Timeout: time.Nanosecond, Obs: o})
	r, body := postScore(t, ts.URL, testRequest(1))
	if r.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", r.StatusCode, body)
	}
	if n := o.Metrics().Counter("service.timeout").Value(); n != 1 {
		t.Fatalf("service.timeout counter = %d, want 1", n)
	}
}

func TestScoreQueueOverflow429(t *testing.T) {
	o := obs.New()
	srv, ts := newTestServer(t, Config{MaxInflight: 1, QueueDepth: 0, Obs: o})
	// Deterministically exhaust the pool: hold its only slot so the
	// next request finds pool and queue (depth 0) both full.
	if err := srv.lim.acquire(context.Background()); err != nil {
		t.Fatalf("priming acquire: %v", err)
	}
	defer srv.lim.release()

	r, body := postScore(t, ts.URL, testRequest(1))
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", r.StatusCode, body)
	}
	if ra := r.Header.Get("Retry-After"); ra == "" {
		t.Fatalf("429 without Retry-After")
	}
	if n := o.Metrics().Counter("service.rejected").Value(); n != 1 {
		t.Fatalf("service.rejected counter = %d, want 1", n)
	}
}

func TestScoreCoalescesDuplicates(t *testing.T) {
	o := obs.New()
	srv, ts := newTestServer(t, Config{MaxInflight: 1, QueueDepth: 4, CacheSize: 8, Obs: o})
	// Hold the pool's slot so the leader registers its flight and
	// then queues; the second identical request must join the flight
	// rather than queue a second computation.
	if err := srv.lim.acquire(context.Background()); err != nil {
		t.Fatalf("priming acquire: %v", err)
	}
	req := testRequest(1)
	type result struct {
		status string
		code   int
		raw    []byte
	}
	results := make(chan result, 2)
	do := func() {
		r, raw := postScore(t, ts.URL, req)
		results <- result{r.Header.Get("X-Hmeans-Cache"), r.StatusCode, raw}
	}
	go do()
	waitFor(t, func() bool { return srv.group.flights() == 1 && srv.Queued() == 1 }, "leader queued")
	go do()
	waitFor(t, func() bool { return srv.group.waiting() == 1 }, "follower joined the flight")
	srv.lim.release()

	a, b := <-results, <-results
	if a.code != http.StatusOK || b.code != http.StatusOK {
		t.Fatalf("statuses %d/%d, want 200/200", a.code, b.code)
	}
	got := map[string]bool{a.status: true, b.status: true}
	if !got[CacheMiss] || !got[CacheCoalesced] {
		t.Fatalf("cache statuses = %v, want one %q and one %q", got, CacheMiss, CacheCoalesced)
	}
	if !bytes.Equal(a.raw, b.raw) {
		t.Fatalf("coalesced response differs from the leader's")
	}
	if runs := o.Metrics().Counter("pipeline.runs").Value(); runs != 1 {
		t.Fatalf("pipeline ran %d times for two identical requests, want 1", runs)
	}
	if n := o.Metrics().Counter("service.cache.coalesced").Value(); n != 1 {
		t.Fatalf("service.cache.coalesced counter = %d, want 1", n)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHealthAndVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for path, want := range map[string]string{"/healthz": "ok", "/version": "hmeansd"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), want) {
			t.Fatalf("GET %s: status %d body %q", path, resp.StatusCode, buf.String())
		}
	}
}

func TestMetricsEndpointCarriesServiceCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 4})
	postScore(t, ts.URL, testRequest(1))
	postScore(t, ts.URL, testRequest(1))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	for _, name := range []string{"service.requests", "service.cache.hit", "service.cache.miss"} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("/metrics snapshot missing %q (have %d keys)", name, len(snap))
		}
	}
}

func TestQuarantineRoundTrip(t *testing.T) {
	// NaN cannot cross JSON, so quarantine is exercised through the
	// in-process Score path the way an embedding caller would hit it.
	srv := New(Config{Obs: obs.New()})
	req := testRequest(1)
	req.Config.Quarantine = true
	nan := 0.0
	nan = nan / nan
	req.Table.Rows[3][1] = nan
	raw, status, err := srv.Score(context.Background(), req)
	if err != nil {
		t.Fatalf("Score: %v", err)
	}
	if status != CacheMiss {
		t.Fatalf("status = %q, want miss", status)
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Quarantined) != 1 || resp.Quarantined[0].Workload != "wl03" {
		t.Fatalf("quarantined = %+v, want wl03", resp.Quarantined)
	}
	if len(resp.Workloads) != 7 {
		t.Fatalf("%d surviving workloads, want 7", len(resp.Workloads))
	}
}

// TestSweepMeansMatchClusteringAtK pins the walk-based means sweep to
// its definition at suite scale: for a 200-workload suite, every per-k
// hierarchical mean in the response equals ClusteringAtK(k) scored by
// a fresh Scorer, bit for bit.
func TestSweepMeansMatchClusteringAtK(t *testing.T) {
	const n, dims = 200, 8
	req := &Request{
		Config: ConfigJSON{Seed: 3},
		Scores: map[string][]float64{"A": make([]float64, n), "B": make([]float64, n)},
	}
	for j := 0; j < dims; j++ {
		req.Table.Features = append(req.Table.Features, fmt.Sprintf("c%d", j))
	}
	for i, p := range (simbench.SyntheticSpec{N: n, Dims: dims, Clusters: 12, Seed: 3}).Points() {
		req.Table.Workloads = append(req.Table.Workloads, fmt.Sprintf("w%03d", i))
		req.Table.Rows = append(req.Table.Rows, []float64(p))
		req.Scores["A"][i] = 1 + float64(i%12) + 0.01*float64(i)
		req.Scores["B"][i] = 2 + float64(i%7) + 0.02*float64(i)
	}
	raw, _, err := New(Config{}).Score(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	tab, err := req.table()
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.DetectClusters(tab, req.pipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Means) != 2*(n-1) {
		t.Fatalf("%d per-k means, want %d", len(resp.Means), 2*(n-1))
	}
	for _, m := range resp.Means {
		c, err := p.ClusteringAtK(m.K)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := core.NewScorer(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			kind core.MeanKind
			got  float64
		}{{core.Geometric, m.HGM}, {core.Arithmetic, m.HAM}, {core.Harmonic, m.HHM}} {
			want, err := sc.Mean(f.kind, req.Scores[m.Vector])
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(f.got) != math.Float64bits(want) {
				t.Fatalf("k=%d vector %s %v: served %v, ClusteringAtK %v", m.K, m.Vector, f.kind, f.got, want)
			}
		}
	}
}
