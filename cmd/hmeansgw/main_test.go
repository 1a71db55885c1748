package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hmeans/internal/cliutil"
	"hmeans/internal/service"
)

// exec runs the gateway through the same cliutil.Run wrapper main
// uses, returning the exit code and captured stderr.
func exec(t *testing.T, out *syncBuffer, args ...string) (code int, stderr string) {
	t.Helper()
	var errb strings.Builder
	code = cliutil.Run("hmeansgw", &errb, func() error { return run(args, out) })
	return code, errb.String()
}

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
		{}, // no replicas
		{"-replica", "http://x", "-vnodes", "0"},
		{"-replica", "http://x", "-retries", "-1"},
		{"-replica", "http://x", "-breaker.threshold", "0"},
		{"-replica", "http://x", "-quorum", "2"}, // above replica count
		{"-replica", "http://x", "-lease.ttl", "0s"},
		{"-replica", "http://x", "-drain.timeout", "0s"},
	}
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
		})
	}
}

func TestVersionFlag(t *testing.T) {
	var out syncBuffer
	code, stderr := exec(t, &out, "-version")
	if code != 0 {
		t.Fatalf("exit %d, stderr %s", code, stderr)
	}
	if !strings.Contains(out.String(), "hmeansgw") {
		t.Fatalf("version output %q", out.String())
	}
}

var addrLine = regexp.MustCompile(`listening on (http://[\d.:]+)`)

func waitForAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := addrLine.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never reported its address; stdout: %q", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// scoreBody is the hmeansd main_test fixture: two separable blobs.
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

// TestServeTimeoutShutdown: -timeout ends the gateway as a planned
// shutdown, exit 0.
func TestServeTimeoutShutdown(t *testing.T) {
	var out syncBuffer
	code, stderr := exec(t, &out, "-addr", "127.0.0.1:0", "-timeout", "100ms", "-replica", "http://127.0.0.1:1")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q after a planned -timeout shutdown", code, stderr)
	}
	if !strings.Contains(out.String(), "shut down") {
		t.Fatalf("no shutdown line in %q", out.String())
	}
}

// TestServeEndToEnd boots two in-process replicas and the gateway
// binary's serve loop over them, scores through the gateway, checks
// the routed response is byte-identical to the home replica's direct
// answer, inspects /ring and /readyz, and verifies the SIGTERM
// shutdown exits 0.
func TestServeEndToEnd(t *testing.T) {
	var replicas []*httptest.Server
	for i := 0; i < 2; i++ {
		srv := service.New(service.Config{CacheSize: 8})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		replicas = append(replicas, ts)
	}

	var out syncBuffer
	done := make(chan int, 1)
	go func() {
		code, stderr := exec(t, &out,
			"-addr", "127.0.0.1:0",
			"-replica", replicas[0].URL, "-replica", replicas[1].URL)
		if stderr != "" {
			t.Errorf("unexpected stderr: %s", stderr)
		}
		done <- code
	}()
	base := waitForAddr(t, &out)

	body := scoreBody()
	resp, err := http.Post(base+"/v1/score", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("score via gateway: %v", err)
	}
	viaGW, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway score status %d: %s", resp.StatusCode, viaGW)
	}
	home := resp.Header.Get("X-Hmeans-Replica")
	if home != replicas[0].URL && home != replicas[1].URL {
		t.Fatalf("X-Hmeans-Replica = %q, not a configured replica", home)
	}
	if err := service.VerifyDigest(resp.Header.Get(service.HeaderDigest), viaGW); err != nil {
		t.Fatalf("gateway digest: %v", err)
	}

	dresp, err := http.Post(home+"/v1/score", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("score direct: %v", err)
	}
	direct, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.Header.Get("X-Hmeans-Cache") != "hit" {
		t.Fatalf("direct follow-up cache %q, want hit (gateway warmed this replica)", dresp.Header.Get("X-Hmeans-Cache"))
	}
	if !bytes.Equal(viaGW, direct) {
		t.Fatal("gateway bytes differ from direct replica bytes")
	}

	for _, path := range []string{"/healthz", "/readyz", "/ring", "/metrics"} {
		r, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, r.StatusCode)
		}
	}

	p, err := os.FindProcess(os.Getpid())
	if err == nil {
		// serve catches SIGTERM before it prints its address.
		err = p.Signal(syscall.SIGTERM)
	}
	if err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
	if code := <-done; code != 0 {
		t.Fatalf("gateway exited %d after a SIGTERM", code)
	}
	if !strings.Contains(out.String(), "shut down") {
		t.Fatalf("no shutdown line in %q", out.String())
	}
}
