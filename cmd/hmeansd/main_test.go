package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hmeans/internal/cliutil"
	"hmeans/internal/obs"
	"hmeans/internal/service"
)

// exec runs the daemon through the same cliutil.Run wrapper main
// uses, returning the exit code and captured stdout/stderr.
func exec(t *testing.T, out *syncBuffer, args ...string) (code int, stderr string) {
	t.Helper()
	var errb strings.Builder
	code = cliutil.Run("hmeansd", &errb, func() error { return run(args, out) })
	return code, errb.String()
}

// syncBuffer lets the test read the daemon's stdout while the serve
// goroutine is still writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-max-inflight", "-1"},
		{"-queue-depth", "-1"},
		{"-cache-size", "-1"},
		{"-parallel", "-2"}, // removed flag
		{"-request-timeout", "-1s"},
		{"-snapshot.interval", "-1s"},
		{"-snapshot.interval", "1s"}, // requires -snapshot
		{"-drain.timeout", "0s"},
		{"-parallel", "abc"},      // removed flag
		{"-linkage-algo", "fast"}, // removed flag
	}
	removed := map[string]bool{"-parallel": true, "-linkage-algo": true}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var out syncBuffer
			code, stderr := exec(t, &out, args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, "usage") {
				t.Fatalf("no usage hint in %q", stderr)
			}
			if removed[args[0]] && !strings.Contains(stderr, args[0]) {
				t.Fatalf("removed flag %s not named in %q", args[0], stderr)
			}
		})
	}
}

func TestVersionFlag(t *testing.T) {
	var out syncBuffer
	code, stderr := exec(t, &out, "-version")
	if code != 0 {
		t.Fatalf("exit %d, stderr %s", code, stderr)
	}
	if !strings.Contains(out.String(), "hmeansd") {
		t.Fatalf("version output %q", out.String())
	}
}

var addrLine = regexp.MustCompile(`listening on (http://[\d.:]+)`)

// TestServeTimeoutShutdown: -timeout ends the daemon as a planned
// shutdown, exit 0.
func TestServeTimeoutShutdown(t *testing.T) {
	var out syncBuffer
	code, stderr := exec(t, &out, "-addr", "127.0.0.1:0", "-timeout", "100ms")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q after a planned -timeout shutdown", code, stderr)
	}
	if !strings.Contains(out.String(), "shut down") {
		t.Fatalf("no shutdown line in %q", out.String())
	}
}

// TestServeEndToEnd boots the daemon on an ephemeral port, scores a
// request over real HTTP, and checks the SIGTERM shutdown exits 0.
func TestServeEndToEnd(t *testing.T) {
	var out syncBuffer
	done := make(chan int, 1)
	go func() {
		code, stderr := exec(t, &out,
			"-addr", "127.0.0.1:0", "-cache-size", "4")
		if stderr != "" {
			t.Errorf("unexpected stderr: %s", stderr)
		}
		done <- code
	}()

	base := waitForAddr(t, &out)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	body := scoreBody()
	r1 := postJSON(t, base+"/v1/score", body)
	if r1.StatusCode != http.StatusOK || r1.Header.Get("X-Hmeans-Cache") != "miss" {
		t.Fatalf("first score: status %d cache %q", r1.StatusCode, r1.Header.Get("X-Hmeans-Cache"))
	}
	r2 := postJSON(t, base+"/v1/score", body)
	if r2.Header.Get("X-Hmeans-Cache") != "hit" {
		t.Fatalf("second score cache %q, want hit", r2.Header.Get("X-Hmeans-Cache"))
	}

	// The obs endpoints share the service port.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", mresp.StatusCode)
	}

	terminate(t)
	if code := <-done; code != 0 {
		t.Fatalf("daemon exited %d after a SIGTERM", code)
	}
	if !strings.Contains(out.String(), "shut down") {
		t.Fatalf("no shutdown line in %q", out.String())
	}
}

// TestServeRequestTelemetry boots the daemon with -access-log and a
// fast -runtime-sample, scores under a chosen X-Request-ID, and
// checks the whole telemetry story: the ID comes back in the
// response, the access log names it, and /metrics answers both JSON
// and valid Prometheus text with runtime gauges present.
func TestServeRequestTelemetry(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "access.log")
	tracePath := filepath.Join(dir, "trace.jsonl")
	var out syncBuffer
	done := make(chan int, 1)
	go func() {
		code, stderr := exec(t, &out,
			"-addr", "127.0.0.1:0", "-cache-size", "4",
			"-access-log", logPath, "-runtime-sample", "10ms",
			"-obs.trace", tracePath)
		if stderr != "" {
			t.Errorf("unexpected stderr: %s", stderr)
		}
		done <- code
	}()

	base := waitForAddr(t, &out)
	req, err := http.NewRequest(http.MethodPost, base+"/v1/score", strings.NewReader(scoreBody()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.HeaderRequestID, "e2e-telemetry-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("score: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(service.HeaderRequestID); got != "e2e-telemetry-1" {
		t.Fatalf("echoed request id %q", got)
	}

	// Default scrape stays JSON; Accept: text/plain switches to the
	// Prometheus exposition, which must pass the format oracle.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	jsonBody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(jsonBody), `"service.requests"`) {
		t.Fatalf("JSON metrics missing service.requests:\n%s", jsonBody)
	}
	preq, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	preq.Header.Set("Accept", "text/plain")
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatalf("prom metrics: %v", err)
	}
	promBody, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if ct := presp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("prom content type %q", ct)
	}
	if _, err := obs.ValidatePrometheus(bytes.NewReader(promBody)); err != nil {
		t.Fatalf("prom exposition invalid: %v\n%s", err, promBody)
	}
	for _, want := range []string{"service_requests", "runtime_goroutines"} {
		if !strings.Contains(string(promBody), want) {
			t.Fatalf("prom metrics missing %s:\n%s", want, promBody)
		}
	}

	terminate(t)
	if code := <-done; code != 0 {
		t.Fatalf("daemon exited %d", code)
	}
	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("reading access log: %v", err)
	}
	line := ""
	for _, l := range strings.Split(string(logBytes), "\n") {
		if strings.Contains(l, "e2e-telemetry-1") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("access log has no line for the request:\n%s", logBytes)
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("access log line not JSON: %v\n%s", err, line)
	}
	if entry["status"] != float64(200) || entry["cache"] != "miss" || entry["path"] != "/v1/score" {
		t.Fatalf("access log entry %v", entry)
	}

	// The same ID correlates into the JSONL trace: the request span
	// carries it as an attribute.
	traceBytes, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	if !strings.Contains(string(traceBytes), "e2e-telemetry-1") {
		t.Fatalf("trace has no span for the request id:\n%s", traceBytes)
	}
}

// postJSONRead is postJSON plus the response body, for byte-identity
// assertions.
func postJSONRead(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s response: %v", url, err)
	}
	return resp, b
}

// TestWarmRestartByteIdentical runs the full crash-safety story
// in-process: boot with -snapshot, populate the cache over HTTP, shut
// down (which persists the cache), boot a second daemon from the same
// snapshot, and check the warm hit is byte-for-byte the pre-restart
// response — digest header included.
func TestWarmRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "cache.snap")
	body := scoreBody()

	// First life: cold boot, miss then hit, planned shutdown writes
	// the snapshot.
	var out1 syncBuffer
	done1 := make(chan int, 1)
	go func() {
		code, stderr := exec(t, &out1,
			"-addr", "127.0.0.1:0", "-cache-size", "8",
			"-snapshot", snap, "-snapshot.interval", "200ms", "-drain.timeout", "2s")
		if stderr != "" {
			t.Errorf("unexpected stderr: %s", stderr)
		}
		done1 <- code
	}()
	base := waitForAddr(t, &out1)
	r1, b1 := postJSONRead(t, base+"/v1/score", body)
	if r1.StatusCode != http.StatusOK || r1.Header.Get("X-Hmeans-Cache") != "miss" {
		t.Fatalf("first score: status %d cache %q", r1.StatusCode, r1.Header.Get("X-Hmeans-Cache"))
	}
	digest := r1.Header.Get(service.HeaderDigest)
	if err := service.VerifyDigest(digest, b1); err != nil {
		t.Fatalf("first response digest: %v", err)
	}
	if resp := mustGet(t, base+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz while serving: %d", resp.StatusCode)
	}
	terminate(t)
	if code := <-done1; code != 0 {
		t.Fatalf("first daemon exited %d", code)
	}
	if !strings.Contains(out1.String(), "wrote snapshot (1 records)") {
		t.Fatalf("no snapshot line in first life's stdout: %q", out1.String())
	}

	// Second life: warm boot from the snapshot. The very first request
	// must be a cache hit with the exact pre-restart bytes.
	var out2 syncBuffer
	done2 := make(chan int, 1)
	go func() {
		code, stderr := exec(t, &out2,
			"-addr", "127.0.0.1:0", "-cache-size", "8",
			"-snapshot", snap)
		if stderr != "" {
			t.Errorf("unexpected stderr: %s", stderr)
		}
		done2 <- code
	}()
	base = waitForAddr(t, &out2)
	if !strings.Contains(out2.String(), "restored 1 cached results") {
		t.Fatalf("no restore line in second life's stdout: %q", out2.String())
	}
	r2, b2 := postJSONRead(t, base+"/v1/score", body)
	if r2.Header.Get("X-Hmeans-Cache") != "hit" {
		t.Fatalf("warm-restart cache %q, want hit", r2.Header.Get("X-Hmeans-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("warm-restart response is not byte-identical to the pre-restart response")
	}
	if got := r2.Header.Get(service.HeaderDigest); got != digest {
		t.Fatalf("warm-restart digest %q, want %q", got, digest)
	}
	terminate(t)
	if code := <-done2; code != 0 {
		t.Fatalf("second daemon exited %d", code)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	return resp
}

// terminate sends SIGTERM to the test process: serve catches it
// before it prints its address and shuts down as planned.
func terminate(t *testing.T) {
	t.Helper()
	p, err := os.FindProcess(os.Getpid())
	if err == nil {
		err = p.Signal(syscall.SIGTERM)
	}
	if err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
}

func waitForAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := addrLine.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address; stdout: %q", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	resp.Body.Close()
	return resp
}

// scoreBody is a minimal valid request: two separable blobs of four
// workloads each.
func scoreBody() string {
	var rows, workloads, scores []string
	for i := 0; i < 8; i++ {
		base := 1.0
		if i >= 4 {
			base = 9.0
		}
		workloads = append(workloads, fmt.Sprintf("%q", fmt.Sprintf("wl%d", i)))
		rows = append(rows, fmt.Sprintf("[%g,%g]", base+0.1*float64(i), base-0.1*float64(i)))
		scores = append(scores, fmt.Sprintf("%g", 1.0+0.5*float64(i)))
	}
	return fmt.Sprintf(`{"table":{"workloads":[%s],"features":["f1","f2"],"rows":[%s]},"scores":{"m":[%s]},"config":{"seed":7},"k":2}`,
		strings.Join(workloads, ","), strings.Join(rows, ","), strings.Join(scores, ","))
}
