package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"hmeans/internal/gateway"
	"hmeans/internal/service"
)

// Generated request bytes are a pure function of the seed: the same
// run seed gives the same suite and the same SOM seed sequence, and a
// different run seed gives different bytes.
func TestRequestBytesArePureFunctionOfSeed(t *testing.T) {
	for _, name := range workloadOrder {
		s := specs[name]
		gen := func(seed uint64) [][]byte {
			suite, err := s.suite(seed)
			if err != nil {
				t.Fatal(err)
			}
			seeds := newSOMSeeds(seed)
			var out [][]byte
			for i := 0; i < 3; i++ {
				b, err := body(suite, seeds.take())
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, b)
			}
			return out
		}
		a, b, c := gen(7), gen(7), gen(8)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("%s: request %d differs between two generations from seed 7", name, i)
			}
			if bytes.Equal(a[i], c[i]) {
				t.Errorf("%s: request %d is the same for seeds 7 and 8", name, i)
			}
		}
		if bytes.Equal(a[0], a[1]) {
			t.Errorf("%s: consecutive requests share bytes (SOM seed repeated)", name)
		}
	}
}

func TestSOMSeedsUniqueAndNonZero(t *testing.T) {
	s := newSOMSeeds(0)
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		v := s.take()
		if v == 0 || seen[v] {
			t.Fatalf("seed %d: %d is zero or repeated", i, v)
		}
		seen[v] = true
	}
}

// percentileOracle is the nearest-rank definition by brute force: the
// smallest sample with at least p% of the samples at or below it.
func percentileOracle(xs []float64, p float64) float64 {
	best := 0.0
	found := false
	for _, x := range xs {
		atOrBelow := 0
		for _, y := range xs {
			if y <= x {
				atOrBelow++
			}
		}
		if float64(atOrBelow) >= p/100*float64(len(xs))-rankSlack && (!found || x < best) {
			best, found = x, true
		}
	}
	return best
}

func TestPercentileMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(60)
		xs := make([]float64, n)
		for i := range xs {
			// Few distinct values, so ties are common.
			xs[i] = float64(r.Intn(20))
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100, 100 * float64(r.Intn(n)+1) / float64(n)} {
			if got, want := percentile(sorted, p), percentileOracle(xs, p); got != want {
				t.Fatalf("n=%d p=%g: percentile %g, oracle %g (samples %v)", n, p, got, want, xs)
			}
		}
	}
}

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {1000, 99}, {200, 95}, {100, 90}, {40, 75}, {20, 50}, {19, 0}} {
		if got := highestTail(c.n, 10); got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// A hand-built span tree: two requests, each a dispatch (10 ms) whose
// replayed children are a decode (3 ms) and a lookup (4 ms) with its
// own child (1 ms), plus a top-level digest (2 ms).
func TestLedgerArithmetic(t *testing.T) {
	ms := int64(time.Millisecond)
	var spans []span
	add := func(id, parent, req int, name string, dur int64, allocs uint64) {
		start := int64(id) * 100 * ms
		spans = append(spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: start + dur, Allocs: allocs, Bytes: 10 * allocs})
	}
	for req := 0; req < 2; req++ {
		b := req * 10
		add(b+1, 0, req, "dispatch", 10*ms+int64(req)*2*ms, 100)
		add(b+2, b+1, req, "decode", 3*ms, 30)
		add(b+3, b+1, req, "lookup", 4*ms, 20)
		add(b+4, b+3, req, "validate", 1*ms, 5)
		add(b+5, 0, req, "digest", 2*ms, 2)
	}
	selfs := selfTimes(spans)
	want := []time.Duration{3, 3, 3, 1, 2, 5, 3, 3, 1, 2}
	for i, w := range want {
		if selfs[i].dur != w*time.Millisecond {
			t.Errorf("span %d (%s): self %v, want %v", spans[i].ID, spans[i].Name, selfs[i].dur, w*time.Millisecond)
		}
	}
	if selfs[0].allocs != 50 || selfs[0].bytes != 500 || selfs[2].allocs != 15 {
		t.Errorf("self allocations: dispatch %d/%d B, lookup %d; want 50/500 B, 15", selfs[0].allocs, selfs[0].bytes, selfs[2].allocs)
	}
	stats := layerStats(spans)
	// dispatch self is 3 ms and 5 ms: nearest-rank median 3 ms.
	if st := stats["dispatch"]; st.median != 3*time.Millisecond || st.calls != 1 || st.allocs != 50 {
		t.Errorf("dispatch row %+v", st)
	}
	// Sum of medians: 3 + 3 + 3 + 1 + 2 = 12 ms; remainder of 20 ms is 8 ms.
	if got := remainder(20*time.Millisecond, stats); got != 8*time.Millisecond {
		t.Errorf("remainder %v, want 8ms", got)
	}
}

// benchmarkSpec reads the metric names BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (e2e, perLayer []string) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bj.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(perLayer)
	return e2e, perLayer
}

// A tiny-length run of every workload, untraced and traced, passes
// its correctness checks and prints exactly the metrics BENCHMARK.json
// declares.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the tier and computes full requests")
	}
	e2e, perLayer := benchmarkSpec(t)
	for _, name := range workloadOrder {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", trace,
				"--spans", filepath.Join(t.TempDir(), "spans.jsonl")}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var out output
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", name, trace, out.Correct, out.Attempted, out.Failed)
			}
			want := e2e
			if trace == "1" {
				want = perLayer
			}
			var got []string
			for k := range out.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%s: metrics\n %v\nwant\n %v", name, trace, got, want)
			}
			if trace == "1" {
				hit := out.Metrics["service.cache_hit_ratio"].Value
				if wantHit := map[bool]float64{true: 1, false: 0}[name == wlFleetHit]; hit != wantHit {
					t.Errorf("%s: service.cache_hit_ratio %g, want %g", name, hit, wantHit)
				}
			}
		}
	}
}

// A fleet-hit response with the primed bytes still fails its checks
// unless it is a cache hit, took the leader route and came from the
// key's home replica. The stub replica sets the headers each request
// body names.
func TestFleetHitHeaderChecks(t *testing.T) {
	raw := []byte("{\"primed\":true}\n")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var hdr map[string]string
		if err := json.NewDecoder(req.Body).Decode(&hdr); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for k, v := range hdr {
			w.Header().Set(k, v)
		}
		w.Header().Set(service.HeaderDigest, service.Digest(raw))
		w.Write(raw)
	}))
	defer ts.Close()
	gw, err := gateway.New(gatewayConfig([]string{ts.URL}))
	if err != nil {
		t.Fatal(err)
	}
	s := specs[wlFleetHit]
	r := &runner{spec: s, tier: &tier{gw: gw, url: ts.URL}, http: ts.Client(),
		primedBodies: make([][]byte, s.primedKeys), primed: make([][]byte, s.primedKeys), homes: make([]string, s.primedKeys)}
	for k := range r.primed {
		r.primed[k], r.homes[k] = raw, "home"
	}
	for _, c := range []struct {
		name, header, value string
		fails               bool
	}{
		{"as expected", "", "", false},
		{"cache miss", "X-Hmeans-Cache", service.CacheMiss, true},
		{"follower", gateway.HeaderRoute, gateway.RoleFollower, true},
		{"failover", gateway.HeaderReplica, "other", true},
	} {
		hdr := map[string]string{"X-Hmeans-Cache": service.CacheHit, gateway.HeaderRoute: gateway.RoleLeader, gateway.HeaderReplica: "home"}
		if c.header != "" {
			hdr[c.header] = c.value
		}
		if r.primedBodies[0], err = json.Marshal(hdr); err != nil {
			t.Fatal(err)
		}
		res := &result{}
		r.do(0, 0, res, false)
		if res.attempted != 1 || (res.failed == 1) != c.fails || res.failed > 1 {
			t.Errorf("%s: attempted %d, failed %d (%s), want failed=%v", c.name, res.attempted, res.failed, res.firstFailure, c.fails)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", wlCaseStudyMiss, "--trace", "2"},
		{"--workload", wlCaseStudyMiss, "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
	}
}
