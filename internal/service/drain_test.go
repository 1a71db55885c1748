package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	return resp
}

// TestDrainFlipsReadinessNotLiveness pins the probe split: BeginDrain
// turns /readyz into a 503 (stop routing here) while /healthz keeps
// answering 200 (do not kill me, I am finishing admitted work), and
// new scoring requests get a 503 with the Retry-After contract and a
// "draining" shed reason in the access log.
func TestDrainFlipsReadinessNotLiveness(t *testing.T) {
	var logbuf bytes.Buffer
	srv, ts := newTestServer(t, Config{CacheSize: 8, AccessLog: slog.New(slog.NewJSONHandler(&logbuf, nil))})

	if resp := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain: %d, want 200", resp.StatusCode)
	}
	srv.BeginDrain()
	if !srv.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}
	resp := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != RetryAfter {
		t.Fatalf("/readyz Retry-After = %q, want %q", got, RetryAfter)
	}
	if resp := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: %d, want 200 (liveness must survive the drain)", resp.StatusCode)
	}

	resp, _ = postScore(t, ts.URL, testRequest(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("score while draining: %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != RetryAfter {
		t.Fatalf("draining 503 Retry-After = %q, want %q", got, RetryAfter)
	}
	if got := resp.Header.Get(HeaderRequestID); got == "" {
		t.Fatal("draining 503 lost the request ID header")
	}
	if !strings.Contains(logbuf.String(), `"shed_reason":"draining"`) {
		t.Fatalf("access log lacks the draining shed reason: %s", logbuf.String())
	}
}

// TestDrainLetsInflightFinish holds a computation open across
// BeginDrain: the in-flight request must complete normally while a
// new arrival is refused. The compute hook makes the interleaving
// deterministic — no sleeps racing real work.
func TestDrainLetsInflightFinish(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: 8})
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.computeHook = func(*Request) {
		close(entered)
		<-release
	}

	type result struct {
		code int
		body []byte
	}
	done := make(chan result, 1)
	go func() {
		body, _ := json.Marshal(testRequest(1))
		resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- result{code: -1}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		done <- result{code: resp.StatusCode, body: buf.Bytes()}
	}()

	<-entered // the first request is now mid-compute
	srv.BeginDrain()

	srv.computeHook = nil // the draining check fires before compute anyway
	resp, _ := postScore(t, ts.URL, testRequest(2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new arrival during drain: %d, want 503", resp.StatusCode)
	}

	close(release)
	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200 — drain must not cut admitted work", r.code)
	}
	if !json.Valid(r.body) {
		t.Fatal("in-flight request returned a torn body")
	}
}

// TestPanicBecomesTypedError makes the computation panic while a
// coalesced follower is waiting on it: both callers must get a clean
// 500 (never a hang or a dead process), the response must keep its
// request ID, and the server must serve the next request normally.
func TestPanicBecomesTypedError(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: 8})
	entered := make(chan struct{})
	srv.computeHook = func(*Request) {
		close(entered)
		// Panic only after a follower has joined the flight, so the
		// test proves the recover happens inside the flight (Group.Do)
		// — an escape would strand this follower forever.
		for srv.group.Waiting() == 0 {
			time.Sleep(time.Millisecond)
		}
		panic("kaboom")
	}

	body, _ := json.Marshal(testRequest(3))
	codes := make(chan int, 2)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
		if err != nil {
			codes <- -1
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode == http.StatusInternalServerError {
			if resp.Header.Get(HeaderRequestID) == "" {
				codes <- -2
				return
			}
			if !strings.Contains(buf.String(), "internal panic") {
				codes <- -3
				return
			}
		}
		codes <- resp.StatusCode
	}
	go post()
	<-entered
	go post()

	for i := 0; i < 2; i++ {
		select {
		case code := <-codes:
			if code != http.StatusInternalServerError {
				t.Fatalf("caller %d got %d, want a typed 500 (negative = missing id/typed message)", i, code)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a caller hung: the panic escaped the flight and stranded its followers")
		}
	}

	// The process survived; the next request must succeed.
	srv.computeHook = nil
	resp, _ := postScore(t, ts.URL, testRequest(3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after recovered panic: %d, want 200", resp.StatusCode)
	}
}

// TestScoreDigestHeader checks every 200 carries an integrity digest
// that verifies against the body, and that a corrupted body fails
// verification with a typed IntegrityError.
func TestScoreDigestHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 8})
	for i, want := range []string{CacheMiss, CacheHit} {
		resp, body := postScore(t, ts.URL, testRequest(4))
		if got := resp.Header.Get("X-Hmeans-Cache"); got != want {
			t.Fatalf("request %d: cache %q, want %q", i, got, want)
		}
		digest := resp.Header.Get(HeaderDigest)
		if !strings.HasPrefix(digest, "sha256:") {
			t.Fatalf("digest header %q lacks the sha256 scheme", digest)
		}
		if err := VerifyDigest(digest, body); err != nil {
			t.Fatalf("genuine body failed verification: %v", err)
		}
		corrupt := append([]byte(nil), body...)
		corrupt[len(corrupt)/2] ^= 0x20
		err := VerifyDigest(digest, corrupt)
		if _, ok := err.(*IntegrityError); !ok {
			t.Fatalf("corrupted body: err = %v, want *IntegrityError", err)
		}
	}
	// Absent header (older server) passes: the check is opportunistic.
	if err := VerifyDigest("", []byte("anything")); err != nil {
		t.Fatalf("empty digest must verify trivially, got %v", err)
	}
}
