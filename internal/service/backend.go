package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hmeans/internal/resilience"
)

// Backend posts one encoded score request and returns the
// digest-verified response bytes with the response header, whose
// HeaderCache names the cache status that produced them. It is the
// seam between "where a score is asked for" and "where it is
// computed": the gateway forwards each client's own bytes through it,
// production over HTTP (Remote) and tests to stubs, and cannot tell
// the difference, because every replica serves the same canonical
// bytes for the same content address.
type Backend interface {
	Post(ctx context.Context, body []byte) ([]byte, http.Header, error)
}

// RemoteConfig configures a Remote backend.
type RemoteConfig struct {
	// BaseURL targets the replica (e.g. http://127.0.0.1:8080).
	BaseURL string
	// Client overrides the HTTP client; nil uses a shared default.
	// Chaos tests inject one with keep-alives disabled and a short
	// timeout.
	Client *http.Client
	// Retry shapes per-dispatch retries against this one replica
	// (transient failures only: 429/502/503/504, transport damage,
	// integrity mismatches). The zero value dispatches exactly once —
	// routing-level failover across replicas is the caller's job.
	Retry resilience.Policy
	// Seed derives the retry jitter streams: call i (counting from 0)
	// draws from Seed+i, so concurrent dispatches do not share a
	// (non-concurrency-safe) jitter stream and a one-call client
	// jitters exactly from Seed.
	Seed uint64
}

// Remote is the one client of the scoring protocol, POST /v1/score:
// hmeansctl, hmeansload and the gateway all send through it. Every
// call gets bounded seeded retry, Retry-After honoring, and digest
// verification of every 200 body — a corrupted wire can produce a
// typed IntegrityError, never a silently wrong score. Safe for
// concurrent use.
type Remote struct {
	url    string
	client *http.Client
	retry  resilience.Policy
	seed   uint64
	calls  atomic.Uint64
}

// NewRemote builds a Remote backend for cfg.
func NewRemote(cfg RemoteConfig) *Remote {
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	return &Remote{
		url:    strings.TrimSuffix(cfg.BaseURL, "/") + "/v1/score",
		client: client,
		retry:  cfg.Retry,
		seed:   cfg.Seed,
	}
}

// Score marshals the request and posts it (see Post), reporting the
// replica's cache status.
//
// Deprecated: nothing in this module calls Score outside its test;
// the gateway (with the client's own bytes), hmeansctl and
// internal/load call Post. It stays only because perfbench/replay.go
// calls it, and goes with the next benchmark change.
func (r *Remote) Score(ctx context.Context, req *Request) ([]byte, string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, "", fmt.Errorf("service: encoding remote request: %w", err)
	}
	raw, hdr, err := r.Post(ctx, body)
	if err != nil {
		return nil, "", err
	}
	return raw, hdr.Get(HeaderCache), nil
}

// Post sends an encoded score request to /v1/score (forwarding any
// correlation ID carried by ctx via WithRequestID) and returns the
// digest-verified response bytes with the response header. Every
// failure is classified: network damage and integrity mismatches
// become *TransportError, non-200 statuses become *UpstreamError with
// the Retry-After hint attached, and a context that fired is returned
// as itself. Failures RetryableUpstream accepts are retried per the
// configured policy.
func (r *Remote) Post(ctx context.Context, body []byte) ([]byte, http.Header, error) {
	rt := resilience.NewRetryer(r.retry, r.seed+r.calls.Add(1)-1)
	var raw []byte
	var hdr http.Header
	err := rt.Do(ctx, func(ctx context.Context) error {
		var aerr error
		raw, hdr, aerr = r.postOnce(ctx, body)
		return aerr
	}, RetryableUpstream)
	return raw, hdr, err
}

func (r *Remote) postOnce(ctx context.Context, body []byte) ([]byte, http.Header, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id := RequestIDFrom(ctx); id != "" {
		hreq.Header.Set(HeaderRequestID, id)
	}
	resp, err := r.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, &TransportError{Err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, &TransportError{Err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, upstreamError(resp, raw)
	}
	if err := VerifyDigest(resp.Header.Get(HeaderDigest), raw); err != nil {
		// Damaged in flight: the replica's copy is fine, so this is
		// transport-shaped and retryable, exactly like a torn read.
		return nil, nil, &TransportError{Err: err}
	}
	return raw, resp.Header, nil
}

// UpstreamError is a non-200 answer from a replica, preserved so the
// caller can relay it faithfully: the gateway answers a client with
// the replica's own status and message for non-retryable failures
// (a 400 through the gateway reads exactly like a 400 from the
// replica).
type UpstreamError struct {
	// Status is the replica's HTTP status.
	Status int
	// Msg is the replica's error message (the "error" field of its
	// JSON error body, or the raw body).
	Msg string
	// RetryAfterSecs carries the replica's Retry-After hint (whole
	// seconds), 0 when absent.
	RetryAfterSecs int
}

func (e *UpstreamError) Error() string {
	return fmt.Sprintf("replica: %s (HTTP %d)", e.Msg, e.Status)
}

// DataError marks 400s as invalid input, so the taxonomy's exit-code
// and HTTP-status mappings treat a relayed bad request like a local
// one.
func (e *UpstreamError) DataError() bool { return e.Status == http.StatusBadRequest }

// RetryAfter feeds the replica's hint to a Retryer.
func (e *UpstreamError) RetryAfter() time.Duration {
	return time.Duration(e.RetryAfterSecs) * time.Second
}

// Temporary reports whether another attempt (against this replica or
// a different one) can plausibly succeed: sheds, drains and gateway-
// class failures, but not invalid input or deterministic server
// errors.
func (e *UpstreamError) Temporary() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// upstreamError builds the typed error for a non-200 replica answer.
func upstreamError(resp *http.Response, raw []byte) *UpstreamError {
	msg := strings.TrimSpace(string(raw))
	var werr struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &werr) == nil && werr.Error != "" {
		msg = werr.Error
	}
	e := &UpstreamError{Status: resp.StatusCode, Msg: msg}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if sec, err := strconv.Atoi(ra); err == nil && sec > 0 {
			e.RetryAfterSecs = sec
		}
	}
	return e
}

// TransportError marks a network-level dispatch failure: the request
// may never have reached the replica, or the response never cleanly
// arrived (connection errors, torn reads, integrity mismatches).
// Always retryable — the replica's state is intact.
type TransportError struct{ Err error }

func (e *TransportError) Error() string { return fmt.Sprintf("transport: %v", e.Err) }
func (e *TransportError) Unwrap() error { return e.Err }

// RetryableUpstream says whether a dispatch failure is worth another
// attempt — by this backend's retry loop and by the gateway's
// failover walk alike: transport damage, integrity mismatches and
// temporary upstream statuses, but never invalid input (which fails
// identically on every replica) or a context that already fired.
func RetryableUpstream(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var te *TransportError
	if errors.As(err, &te) {
		return true
	}
	var ie *IntegrityError
	if errors.As(err, &ie) {
		return true
	}
	var ue *UpstreamError
	if errors.As(err, &ue) {
		return ue.Temporary()
	}
	return false
}
