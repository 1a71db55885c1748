package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"hmeans/internal/resilience"
)

// TestRemotePostReturnsHeader pins what Post hands back: the
// digest-verified bytes and the replica's whole response header, so a
// caller can read the routing headers a gateway adds (replica, route)
// as well as the cache status.
func TestRemotePostReturnsHeader(t *testing.T) {
	const payload = `{"score":7}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderDigest, Digest([]byte(payload)))
		w.Header().Set(HeaderCache, CacheHit)
		w.Header().Set("X-Hmeans-Replica", "http://replica-2")
		w.Header().Set("X-Hmeans-Route", "follower")
		w.Write([]byte(payload))
	}))
	defer ts.Close()

	raw, hdr, err := NewRemote(RemoteConfig{BaseURL: ts.URL + "/"}).Post(context.Background(), []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != payload {
		t.Fatalf("raw = %s", raw)
	}
	for name, want := range map[string]string{
		HeaderCache:        CacheHit,
		"X-Hmeans-Replica": "http://replica-2",
		"X-Hmeans-Route":   "follower",
		HeaderDigest:       Digest([]byte(payload)),
	} {
		if got := hdr.Get(name); got != want {
			t.Errorf("header %s = %q, want %q", name, got, want)
		}
	}
}

// TestRemoteScore pins the happy path: bytes round-trip the wire
// digest-verified, the cache status header is surfaced, and the
// context's request ID is forwarded on the hop.
func TestRemoteScore(t *testing.T) {
	const payload = `{"score":42}`
	var gotID atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotID.Store(r.Header.Get(HeaderRequestID))
		w.Header().Set(HeaderDigest, Digest([]byte(payload)))
		w.Header().Set(HeaderCache, CacheMiss)
		w.Write([]byte(payload))
	}))
	defer ts.Close()

	r := NewRemote(RemoteConfig{BaseURL: ts.URL})
	ctx := WithRequestID(context.Background(), "hop-test.7")
	raw, status, err := r.Score(ctx, testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != payload {
		t.Fatalf("raw = %s", raw)
	}
	if status != CacheMiss {
		t.Fatalf("status = %q, want %q", status, CacheMiss)
	}
	if got := gotID.Load(); got != "hop-test.7" {
		t.Fatalf("replica saw request ID %q, want hop-test.7", got)
	}
}

// TestRemoteRetriesTransient pins the per-replica retry: a shed 429
// answered once is retried and the second attempt's bytes win.
func TestRemoteRetriesTransient(t *testing.T) {
	const payload = `{"ok":true}`
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
			return
		}
		w.Header().Set(HeaderDigest, Digest([]byte(payload)))
		w.Write([]byte(payload))
	}))
	defer ts.Close()

	r := NewRemote(RemoteConfig{
		BaseURL: ts.URL,
		Retry:   resilience.Policy{MaxRetries: 1, BaseDelay: 1},
		Seed:    7,
	})
	raw, _, err := r.Score(context.Background(), testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != payload {
		t.Fatalf("raw = %s", raw)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d attempts, want 2", calls.Load())
	}
}

// TestRemoteRelays400 pins that invalid input is not retried and comes
// back as a typed UpstreamError with DataError set.
func TestRemoteRelays400(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad table"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	r := NewRemote(RemoteConfig{BaseURL: ts.URL, Retry: resilience.Policy{MaxRetries: 3, BaseDelay: 1}})
	_, _, err := r.Score(context.Background(), testRequest(1))
	var ue *UpstreamError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *UpstreamError", err)
	}
	if ue.Status != http.StatusBadRequest || !ue.DataError() || ue.Temporary() {
		t.Fatalf("unexpected classification: %+v", ue)
	}
	if ue.Msg != "bad table" {
		t.Fatalf("msg = %q, want the replica's message", ue.Msg)
	}
	if calls.Load() != 1 {
		t.Fatalf("400 was attempted %d times, want 1 (never retried)", calls.Load())
	}
}

// TestRemoteDigestMismatch pins the integrity path: a body that does
// not match its digest is transport damage, typed and retryable —
// never silently served.
func TestRemoteDigestMismatch(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderDigest, Digest([]byte("what was computed")))
		w.Write([]byte("what arrived"))
	}))
	defer ts.Close()

	r := NewRemote(RemoteConfig{BaseURL: ts.URL})
	_, _, err := r.Score(context.Background(), testRequest(1))
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TransportError", err)
	}
	if !RetryableUpstream(err) {
		t.Fatal("integrity damage must be retryable")
	}
}

// TestRemoteConnectionRefused pins the dead-replica path: a typed,
// retryable TransportError.
func TestRemoteConnectionRefused(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // dead before the first dial

	r := NewRemote(RemoteConfig{BaseURL: ts.URL})
	_, _, err := r.Score(context.Background(), testRequest(1))
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TransportError", err)
	}
	if !RetryableUpstream(err) {
		t.Fatal("connection refusal must be retryable")
	}
}

// TestRetryableUpstream is the classifier table.
func TestRetryableUpstream(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"transport", &TransportError{Err: errors.New("refused")}, true},
		{"shed 429", &UpstreamError{Status: http.StatusTooManyRequests}, true},
		{"draining 503", &UpstreamError{Status: http.StatusServiceUnavailable}, true},
		{"bad gateway 502", &UpstreamError{Status: http.StatusBadGateway}, true},
		{"timeout 504", &UpstreamError{Status: http.StatusGatewayTimeout}, true},
		{"bad request 400", &UpstreamError{Status: http.StatusBadRequest}, false},
		{"server bug 500", &UpstreamError{Status: http.StatusInternalServerError}, false},
		{"other", errors.New("mystery"), false},
	}
	for _, c := range cases {
		if got := RetryableUpstream(c.err); got != c.want {
			t.Errorf("%s: RetryableUpstream = %v, want %v", c.name, got, c.want)
		}
	}
}
