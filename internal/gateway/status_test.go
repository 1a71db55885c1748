package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hmeans/internal/service"
)

// dataErr is an error carrying the taxonomy's invalid-input marker.
type dataErr struct{}

func (dataErr) Error() string   { return "bad data" }
func (dataErr) DataError() bool { return true }

// TestGatewayStatusPerErrorClass pins the HTTP status the gateway
// answers for every class of dispatch failure: relayed replica
// statuses, invalid input, exhausted failover, context expiry, an
// HTTP client timeout, its own drain and a genuine bug.
func TestGatewayStatusPerErrorClass(t *testing.T) {
	failing := func(err error) func(string) service.Backend {
		return func(string) service.Backend {
			return backendFunc(func(context.Context, []byte) ([]byte, http.Header, error) {
				return nil, nil, err
			})
		}
	}
	cases := []struct {
		name  string
		dial  func(string) service.Backend
		drain bool
		want  int
	}{
		{"upstream 400 relayed", failing(&service.UpstreamError{Status: http.StatusBadRequest, Msg: "bad"}), false, http.StatusBadRequest},
		{"upstream 500 relayed", failing(&service.UpstreamError{Status: http.StatusInternalServerError, Msg: "bug"}), false, http.StatusInternalServerError},
		{"upstream 429 everywhere", failing(&service.UpstreamError{Status: http.StatusTooManyRequests, Msg: "shed"}), false, http.StatusServiceUnavailable},
		{"upstream 503 everywhere", failing(&service.UpstreamError{Status: http.StatusServiceUnavailable, Msg: "draining"}), false, http.StatusServiceUnavailable},
		{"bad request", failing((&service.Request{}).Validate()), false, http.StatusBadRequest},
		{"data error", failing(fmt.Errorf("wrapped: %w", dataErr{})), false, http.StatusBadRequest},
		{"transport everywhere", failing(&service.TransportError{Err: errors.New("connection reset")}), false, http.StatusServiceUnavailable},
		{"integrity everywhere", failing(&service.TransportError{Err: &service.IntegrityError{Want: "a", Got: "b"}}), false, http.StatusServiceUnavailable},
		{"deadline", failing(context.DeadlineExceeded), false, http.StatusGatewayTimeout},
		{"transport deadline", failing(&service.TransportError{Err: context.DeadlineExceeded}), false, http.StatusGatewayTimeout},
		{"canceled", failing(context.Canceled), false, http.StatusServiceUnavailable},
		{"internal", failing(errors.New("boom")), false, http.StatusInternalServerError},
		{"gateway draining", failing(errors.New("never dispatched")), true, http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gw, err := New(Config{Replicas: []string{"http://b0", "http://b1"}, Dial: tc.dial})
			if err != nil {
				t.Fatal(err)
			}
			if tc.drain {
				gw.BeginDrain()
			}
			ts := httptest.NewServer(gw.Handler())
			defer ts.Close()
			resp, raw := postScore(t, ts.URL, gwTestRequest(1))
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.want, raw)
			}
		})
	}

	// An http.Client timeout from an injected Config.Client reaches the
	// status mapping as a *service.TransportError whose chain is
	// context.DeadlineExceeded: it is a deadline (504), not an
	// unreachable fleet (503).
	t.Run("client timeout", func(t *testing.T) {
		release := make(chan struct{})
		hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			<-release
		}))
		defer hung.Close()
		defer close(release)
		gw, err := New(Config{
			Replicas: []string{hung.URL},
			Client:   &http.Client{Timeout: 50 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(gw.Handler())
		defer ts.Close()
		resp, raw := postScore(t, ts.URL, gwTestRequest(2))
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504 (body %s)", resp.StatusCode, raw)
		}
	})
}
