package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"hmeans/internal/cluster"
	"hmeans/internal/gateway"
	"hmeans/internal/load"
	"hmeans/internal/service"
)

// replicaConfig is hmeansd's configuration at its flag defaults:
// -cache-size 128, -queue-depth 64, -max-inflight 0 (the CPU count),
// -parallel 1, -linkage-algo auto, no request timeout, telemetry and
// access log off.
func replicaConfig() service.Config {
	return service.Config{
		MaxInflight:      0,
		QueueDepth:       service.DefaultQueueDepth,
		CacheSize:        128,
		Parallelism:      1,
		LinkageAlgorithm: cluster.AlgoAuto,
	}
}

// gatewayConfig is hmeansgw's configuration at its flag defaults
// (-retries 1, -retry.base 50ms, -lease.ttl 30s, -vnodes 64,
// -breaker.threshold 3, -breaker.cooldown 5s, majority quorum,
// -probe.timeout 1s, -seed 1, telemetry and access log off) over the
// given replica URLs.
func gatewayConfig(replicas []string) gateway.Config {
	return gateway.Config{
		Replicas:         replicas,
		VNodes:           gateway.DefaultVNodes,
		LeaseTTL:         30 * time.Second,
		Retries:          1,
		RetryBase:        50 * time.Millisecond,
		Seed:             1,
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Second,
		ProbeTimeout:     time.Second,
	}
}

// configLine describes the server configuration in effect, for the run
// header.
func configLine() string {
	c := replicaConfig()
	g := gatewayConfig(nil)
	return fmt.Sprintf("hmeansd cache=%d queue=%d max-inflight=%d parallel=%d linkage=%s obs=off access-log=off; "+
		"hmeansgw retries=%d retry.base=%v lease.ttl=%v vnodes=%d breaker=%d/%v quorum=majority obs=off access-log=off",
		c.CacheSize, c.QueueDepth, runtime.NumCPU(), c.Parallelism, c.LinkageAlgorithm,
		g.Retries, g.RetryBase, g.LeaseTTL, g.VNodes, g.BreakerThreshold, g.BreakerCooldown)
}

// tier is the scoring tier of one workload, booted in-process on
// loopback: the replicas and, when the workload routes through one,
// the gateway. url is where clients send requests.
type tier struct {
	replicas []*load.Daemon
	gw       *gateway.Gateway
	gwServer *http.Server
	gwDone   chan error
	url      string
}

// bootTier starts the replicas (and gateway) of s. Replicas boot the
// way hmeansd serves them, through load.StartDaemon; the gateway gets
// its own listener because load.StartCluster fixes its retries at 0.
func bootTier(s spec) (*tier, error) {
	t := &tier{}
	var urls []string
	for i := 0; i < s.replicas; i++ {
		d, err := load.StartDaemon(replicaConfig())
		if err != nil {
			t.close()
			return nil, err
		}
		t.replicas = append(t.replicas, d)
		urls = append(urls, d.URL)
	}
	t.url = urls[0]
	if s.gateway {
		gw, err := gateway.New(gatewayConfig(urls))
		if err != nil {
			t.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, err
		}
		t.gw, t.url = gw, "http://"+ln.Addr().String()
		t.gwServer = &http.Server{Handler: gw.Handler()}
		t.gwDone = make(chan error, 1)
		go func() { t.gwDone <- t.gwServer.Serve(ln) }()
	}
	return t, nil
}

// close shuts the gateway and then every replica down, waiting for each
// serve loop to end.
func (t *tier) close() error {
	var errs []error
	if t.gwServer != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := t.gwServer.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
		cancel()
		if err := <-t.gwDone; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		t.gwServer = nil
	}
	for _, d := range t.replicas {
		errs = append(errs, d.Close())
	}
	t.replicas = nil
	return errors.Join(errs...)
}
