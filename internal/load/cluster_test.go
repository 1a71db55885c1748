package load

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"hmeans/internal/obs"
	"hmeans/internal/service"
)

func TestStartClusterRejectsZeroReplicas(t *testing.T) {
	if _, err := StartCluster(0, service.Config{}); err == nil {
		t.Fatal("0-replica cluster accepted")
	}
}

// TestClusterServesThroughGateway boots the self-managed cluster and
// proves the load harness's target contract holds: scoring works
// through the gateway URL, repeats are cache hits on a sticky replica,
// and teardown is clean.
func TestClusterServesThroughGateway(t *testing.T) {
	o := obs.New()
	c, err := StartCluster(2, service.Config{CacheSize: 8, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	}()
	if len(c.Replicas) != 2 {
		t.Fatalf("%d replicas, want 2", len(c.Replicas))
	}

	body, err := json.Marshal(SyntheticBaseRequest(8, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	post := func() (*http.Response, []byte) {
		resp, err := http.Post(c.URL+"/v1/score", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST via gateway: %v", err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	r1, b1 := post()
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", r1.StatusCode, b1)
	}
	replica := r1.Header.Get("X-Hmeans-Replica")
	r2, b2 := post()
	if r2.Header.Get("X-Hmeans-Cache") != service.CacheHit {
		t.Fatalf("repeat cache %q, want hit", r2.Header.Get("X-Hmeans-Cache"))
	}
	if r2.Header.Get("X-Hmeans-Replica") != replica {
		t.Fatalf("repeat routed to %q, want sticky %q", r2.Header.Get("X-Hmeans-Replica"), replica)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("gateway repeat bytes differ")
	}
}

// TestClusterUnderLoad drives a small deterministic load run at the
// cluster and checks the report adds up — the same invariant the
// single-daemon harness pins, now through the routing tier.
func TestClusterUnderLoad(t *testing.T) {
	o := obs.New()
	c, err := StartCluster(2, service.Config{CacheSize: 16, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 30
	payloads, err := BuildPayloads(SyntheticBaseRequest(8, 4, 7), Mix{HitPct: 70, MissPct: 30}, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		BaseURL:     c.URL,
		Mode:        Closed,
		Payloads:    payloads,
		Concurrency: 4,
		Seed:        7,
		MaxRetries:  2,
		Obs:         o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Config.Requests != n {
		t.Fatalf("report counts %d requests, want %d", rep.Config.Requests, n)
	}
	if rep.ErrorRate != 0 {
		t.Fatalf("error rate %v under a healthy cluster, want 0", rep.ErrorRate)
	}
	// The gateway actually saw the traffic.
	if o.Metrics().Counter("gateway.requests").Value() == 0 {
		t.Fatal("gateway.requests never moved — load bypassed the gateway")
	}
}
