package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"hmeans/internal/cliutil"
	"hmeans/internal/gateway"
	"hmeans/internal/obs"
	"hmeans/internal/service"
)

func exec(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = cliutil.Run("hmeansctl", &errb, func() error { return run(args, &out, &errb) })
	return code, out.String(), errb.String()
}

// startDaemon serves the real service handler on an httptest server.
func startDaemon(t *testing.T) string {
	t.Helper()
	o := obs.New()
	srv := service.New(service.Config{Obs: o, CacheSize: 8})
	mux := srv.Handler()
	o.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// writeInputs writes a scores CSV and a characterization CSV for two
// separable blobs of four workloads each.
func writeInputs(t *testing.T) (scoresPath, charsPath string) {
	t.Helper()
	dir := t.TempDir()
	var scores, chars strings.Builder
	scores.WriteString("workload,score\n")
	chars.WriteString("workload,f1,f2,f3\n")
	for i := 0; i < 8; i++ {
		base := 1.0
		if i >= 4 {
			base = 9.0
		}
		name := fmt.Sprintf("wl%02d", i)
		fmt.Fprintf(&scores, "%s,%g\n", name, 1.0+0.5*float64(i))
		fmt.Fprintf(&chars, "%s,%g,%g,%g\n", name,
			base+0.1*float64(i), base-0.1*float64(i), base)
	}
	scoresPath = filepath.Join(dir, "speedups.csv")
	charsPath = filepath.Join(dir, "sar.csv")
	if err := os.WriteFile(scoresPath, []byte(scores.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(charsPath, []byte(chars.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return scoresPath, charsPath
}

func TestUsageErrors(t *testing.T) {
	t.Run("missing inputs", func(t *testing.T) {
		code, _, stderr := exec(t)
		if code != 2 || !strings.Contains(stderr, "-scores and -chars") {
			t.Fatalf("exit %d, stderr %q", code, stderr)
		}
	})
	t.Run("bad kind", func(t *testing.T) {
		scoresPath, charsPath := writeInputs(t)
		code, _, stderr := exec(t, "-scores", scoresPath, "-chars", charsPath, "-kind", "vibes")
		if code != 2 || !strings.Contains(stderr, "kind") {
			t.Fatalf("exit %d, stderr %q", code, stderr)
		}
	})
	t.Run("bad mean", func(t *testing.T) {
		base := startDaemon(t)
		scoresPath, charsPath := writeInputs(t)
		code, _, stderr := exec(t, "-addr", base, "-scores", scoresPath, "-chars", charsPath, "-mean", "nope")
		if code != 2 || !strings.Contains(stderr, "unknown mean") {
			t.Fatalf("exit %d, stderr %q", code, stderr)
		}
	})
}

func TestHealth(t *testing.T) {
	base := startDaemon(t)
	code, stdout, stderr := exec(t, "-addr", base, "-health")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "ok") {
		t.Fatalf("health output %q", stdout)
	}
}

func TestRenderFixedK(t *testing.T) {
	base := startDaemon(t)
	scoresPath, charsPath := writeInputs(t)
	code, stdout, stderr := exec(t, "-addr", base,
		"-scores", scoresPath, "-chars", charsPath, "-k", "2", "-v")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "hierarchical geometric mean (k=2): ") {
		t.Fatalf("missing hierarchical mean line in %q", stdout)
	}
	if !strings.Contains(stdout, "plain geometric mean:              ") {
		t.Fatalf("missing plain mean line in %q", stdout)
	}
	if !strings.Contains(stdout, "cluster 0: ") || !strings.Contains(stdout, "cluster 1: ") {
		t.Fatalf("missing cluster member lines in %q", stdout)
	}
	if !strings.Contains(stderr, "cache: miss") {
		t.Fatalf("-v cache status missing from stderr %q", stderr)
	}
}

func TestRenderSweep(t *testing.T) {
	base := startDaemon(t)
	scoresPath, charsPath := writeInputs(t)
	code, stdout, stderr := exec(t, "-addr", base,
		"-scores", scoresPath, "-chars", charsPath, "-mean", "harmonic")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"k", "hierarchical", "plain", "2", "8"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("sweep table missing %q:\n%s", want, stdout)
		}
	}
}

// TestJSONByteIdentity sends the same request twice; the second is a
// cache hit and the raw bytes must match exactly.
func TestJSONByteIdentity(t *testing.T) {
	base := startDaemon(t)
	scoresPath, charsPath := writeInputs(t)
	args := []string{"-addr", base, "-scores", scoresPath, "-chars", charsPath, "-json", "-v"}
	code, cold, stderr1 := exec(t, args...)
	if code != 0 {
		t.Fatalf("cold call: exit %d, stderr %q", code, stderr1)
	}
	code, hit, stderr2 := exec(t, args...)
	if code != 0 {
		t.Fatalf("hit call: exit %d, stderr %q", code, stderr2)
	}
	if !strings.Contains(stderr1, "cache: miss") || !strings.Contains(stderr2, "cache: hit") {
		t.Fatalf("cache statuses: %q then %q", stderr1, stderr2)
	}
	if cold != hit {
		t.Fatal("cache hit bytes differ from cold-path bytes")
	}
}

// TestRequestIDFlag checks the correlation contract from the client
// side: -v names the request before posting, a chosen -request-id is
// sent verbatim, and an omitted one is generated in the r- shape.
func TestRequestIDFlag(t *testing.T) {
	base := startDaemon(t)
	scoresPath, charsPath := writeInputs(t)
	code, _, stderr := exec(t, "-addr", base,
		"-scores", scoresPath, "-chars", charsPath, "-k", "2",
		"-request-id", "ctl-test-7", "-v")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stderr, "request: ctl-test-7\n") {
		t.Fatalf("-v did not report the chosen request id: %q", stderr)
	}

	code, _, stderr = exec(t, "-addr", base,
		"-scores", scoresPath, "-chars", charsPath, "-k", "2", "-v")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stderr, "request: r-") {
		t.Fatalf("-v did not report a generated request id: %q", stderr)
	}
}

// TestGatewayVerboseNamesReplica checks -v through a gateway: besides
// the request ID and cache status, stderr names the replica that
// served the bytes and the coalescing role the request took.
func TestGatewayVerboseNamesReplica(t *testing.T) {
	replica := startDaemon(t)
	gw, err := gateway.New(gateway.Config{Replicas: []string{replica}, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	scoresPath, charsPath := writeInputs(t)
	code, _, stderr := exec(t, "-gateway", ts.URL,
		"-scores", scoresPath, "-chars", charsPath, "-k", "2", "-v")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"request: r-", "cache: miss\n", "replica: " + replica + " (route leader)\n"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("-v stderr %q lacks %q", stderr, want)
		}
	}
}

// TestRemoteBadRequestExitsThree checks that a daemon-side 400 maps to
// the batch CLI's invalid-input exit code.
func TestRemoteBadRequestExitsThree(t *testing.T) {
	base := startDaemon(t)
	dir := t.TempDir()
	scoresPath := filepath.Join(dir, "speedups.csv")
	charsPath := filepath.Join(dir, "sar.csv")
	// A zero score is valid CSV but the service rejects it (geometric
	// and harmonic means need strictly positive scores).
	os.WriteFile(scoresPath, []byte("workload,score\nwl00,0\nwl01,2\n"), 0o644)
	os.WriteFile(charsPath, []byte("workload,f1\nwl00,1\nwl01,2\n"), 0o644)
	code, _, stderr := exec(t, "-addr", base, "-scores", scoresPath, "-chars", charsPath)
	if code != 3 {
		t.Fatalf("exit %d, want 3; stderr %q", code, stderr)
	}
	if !strings.Contains(stderr, "invalid input") {
		t.Fatalf("stderr %q lacks invalid-input marker", stderr)
	}
}

// TestUnreachableDaemon checks a connection failure exits with the
// transport code, distinct from internal errors and bad input.
func TestUnreachableDaemon(t *testing.T) {
	scoresPath, charsPath := writeInputs(t)
	code, _, stderr := exec(t, "-addr", "http://127.0.0.1:1",
		"-scores", scoresPath, "-chars", charsPath)
	if code != cliutil.ExitTransport {
		t.Fatalf("exit %d, want %d; stderr %q", code, cliutil.ExitTransport, stderr)
	}
	if !strings.Contains(stderr, "transport") {
		t.Fatalf("stderr %q lacks the transport marker", stderr)
	}
}

// TestStatusExitMapping pins the full HTTP status → exit code table:
// scripts branch on these, so a drift here is an interface break.
// 400 keeps the batch CLI's invalid-input code 3; 429 and 503 are
// "come back later" (4); server bugs and timeouts stay 1.
func TestStatusExitMapping(t *testing.T) {
	scoresPath, charsPath := writeInputs(t)
	cases := []struct {
		status int
		body   string
		exit   int
	}{
		{http.StatusBadRequest, `{"error":"score vector bad"}`, 3},
		{http.StatusTooManyRequests, `{"error":"overloaded"}`, cliutil.ExitUnavailable},
		{http.StatusServiceUnavailable, `{"error":"draining"}`, cliutil.ExitUnavailable},
		{http.StatusInternalServerError, `{"error":"panic"}`, 1},
		{http.StatusGatewayTimeout, `{"error":"deadline"}`, 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%d", tc.status), func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.status == http.StatusTooManyRequests || tc.status == http.StatusServiceUnavailable {
					w.Header().Set("Retry-After", service.RetryAfter)
				}
				w.WriteHeader(tc.status)
				io.WriteString(w, tc.body)
			}))
			defer ts.Close()
			code, _, stderr := exec(t, "-addr", ts.URL, "-scores", scoresPath, "-chars", charsPath)
			if code != tc.exit {
				t.Fatalf("status %d: exit %d, want %d; stderr %q", tc.status, code, tc.exit, stderr)
			}
		})
	}
}

// TestRetriesRecoverFromShed sheds the first two attempts with 429 +
// Retry-After and answers the third: with -retries the run must
// succeed, and without them it must exit 4.
func TestRetriesRecoverFromShed(t *testing.T) {
	scoresPath, charsPath := writeInputs(t)
	o := obs.New()
	srv := service.New(service.Config{Obs: o, CacheSize: 8})
	mux := srv.Handler()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0") // keep the test fast: jitter on 0s is 0
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"error":"overloaded"}`)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer ts.Close()

	code, _, stderr := exec(t, "-addr", ts.URL, "-scores", scoresPath, "-chars", charsPath,
		"-retries", "3", "-retry.base", "1ms", "-k", "2")
	if code != 0 {
		t.Fatalf("exit %d with retries, stderr %q", code, stderr)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("daemon saw %d calls, want 3 (two sheds + success)", got)
	}

	calls.Store(0)
	code, _, _ = exec(t, "-addr", ts.URL, "-scores", scoresPath, "-chars", charsPath)
	if code != cliutil.ExitUnavailable {
		t.Fatalf("exit %d without retries, want %d", code, cliutil.ExitUnavailable)
	}
}

// TestIntegrityMismatchIsTransport serves a valid-looking 200 whose
// digest does not match the body: the client must refuse it as a
// transport failure instead of rendering a corrupted score.
func TestIntegrityMismatchIsTransport(t *testing.T) {
	scoresPath, charsPath := writeInputs(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(service.HeaderDigest, service.Digest([]byte("what the server meant")))
		w.Header().Set("X-Hmeans-Cache", "miss")
		io.WriteString(w, `{"workloads":[]}`)
	}))
	defer ts.Close()
	code, _, stderr := exec(t, "-addr", ts.URL, "-scores", scoresPath, "-chars", charsPath)
	if code != cliutil.ExitTransport {
		t.Fatalf("exit %d, want %d; stderr %q", code, cliutil.ExitTransport, stderr)
	}
	if !strings.Contains(stderr, "integrity") {
		t.Fatalf("stderr %q does not name the integrity failure", stderr)
	}
}

// TestRunRejectsRemovedHedgeFlag: -hedge is gone, so a script still
// passing it fails as a usage mistake (exit 2) that names the flag,
// before any request is sent.
func TestRunRejectsRemovedHedgeFlag(t *testing.T) {
	scoresPath, charsPath := writeInputs(t)
	code, _, stderr := exec(t, "-addr", startDaemon(t), "-scores", scoresPath, "-chars", charsPath,
		"-hedge", "20ms")
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr %q", code, stderr)
	}
	if !strings.Contains(stderr, "-hedge") {
		t.Fatalf("stderr %q does not name the flag", stderr)
	}
}
