// Package gateway is the front tier of a horizontal hmeansd
// deployment: one process that owns no compute of its own, routes
// POST /v1/score by the request's SHA-256 content address over a
// consistent-hash ring of replicas (cache affinity: each key has one
// home replica, so the fleet-wide cache hit rate approaches a single
// process's), coalesces identical in-flight requests across replicas
// into one dispatch through the replicas' own coalescing group
// (service.Group) with Config.LeaseTTL as that dispatch's deadline,
// and treats replica failure as a routing event — breaker-open or
// draining replicas are skipped on the ring walk, /readyz aggregates
// replica readiness into a quorum answer, and a recovered replica
// re-enters rotation through a half-open probe.
//
// The byte-identity contract survives the extra hop: the gateway
// serves exactly the bytes the replica returned (digest-verified on
// the way in, re-stamped on the way out), so gateway-served responses
// are byte-identical to direct-replica responses — the cluster-smoke
// CI job proves it against the batch CLI as well.
package gateway

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hmeans/internal/obs"
	"hmeans/internal/resilience"
	"hmeans/internal/service"
)

// Routing headers the gateway adds on top of the service's own.
const (
	// HeaderReplica names the replica that served the response.
	HeaderReplica = "X-Hmeans-Replica"
	// HeaderRoute reports the coalescing role this request took:
	// leader or follower.
	HeaderRoute = "X-Hmeans-Route"
)

// ErrNoReplica reports that every replica was unavailable for a
// dispatch: breaker-open, draining, shedding or unreachable. Mapped to
// 503 + Retry-After — the cluster equivalent of a single daemon's
// draining answer, and explicitly NOT a 5xx-internal: the gateway is
// fine, the fleet is (transiently) out of capacity.
var ErrNoReplica = errors.New("gateway: no replica available")

// Config configures a Gateway.
type Config struct {
	// Replicas are the replica base URLs the ring routes over.
	Replicas []string
	// VNodes is the per-replica virtual-node count; <= 0 takes
	// DefaultVNodes.
	VNodes int
	// LeaseTTL is the deadline of one dispatch: the leader's walk over
	// the ring, retries included, which it and its followers share;
	// <= 0 defaults to 30s. The dispatch is detached from the clients,
	// so a replica that has not answered by then fails by this clock,
	// counts against its breaker and answers 504. Set it above the
	// slowest expected compute.
	LeaseTTL time.Duration
	// Retries bounds per-replica dispatch retries (service.Remote's
	// policy); < 0 means 0. Failover to the next ring candidate is
	// separate and always on.
	Retries int
	// RetryBase is the backoff before a per-replica retry; <= 0
	// defaults to 50ms. Jitter is ±25%, seeded by Seed.
	RetryBase time.Duration
	// Seed derives every jittered delay, PR 8 discipline.
	Seed uint64
	// BreakerThreshold consecutive dispatch failures take a replica
	// out of rotation; <= 0 defaults to 3. A draining replica is
	// tripped out immediately regardless.
	BreakerThreshold int
	// BreakerCooldown is how long an open replica stays out before a
	// half-open probe; <= 0 defaults to 5s.
	BreakerCooldown time.Duration
	// Quorum is how many replicas must report ready for the gateway's
	// /readyz to answer 200; <= 0 means a majority (n/2+1).
	Quorum int
	// ProbeTimeout bounds each replica /readyz probe; <= 0 defaults
	// to 1s.
	ProbeTimeout time.Duration
	// MaxBodyBytes bounds the request body; <= 0 defaults to 64 MiB.
	MaxBodyBytes int64
	// Client is the HTTP client for dispatches and probes; nil builds
	// one with keep-alives sized for the replica count.
	Client *http.Client
	// Dial builds the backend for a replica address. Nil uses
	// service.NewRemote — the production path. Tests inject stubs
	// here.
	Dial func(addr string) service.Backend
	// Obs receives request spans and the gateway counters. Nil falls
	// back to the process-default observer.
	Obs *obs.Observer
	// AccessLog receives one structured line per request (request_id,
	// status, replica, route, cache). Nil disables access logging.
	AccessLog *slog.Logger
}

// Gateway routes scoring requests over a replica ring. Build one with
// New, expose it with Handler.
type Gateway struct {
	cfg      Config
	obs      *obs.Observer
	ring     *Ring
	flights  *service.Group[leaseResult]
	aliases  *service.Aliases
	breakers *resilience.BreakerSet
	client   *http.Client

	mu       sync.Mutex
	backends map[string]service.Backend

	draining atomic.Bool
}

// New builds a Gateway from cfg (see Config for defaulting).
func New(cfg Config) (*Gateway, error) {
	ring, err := NewRing(cfg.Replicas, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.Quorum <= 0 {
		cfg.Quorum = len(cfg.Replicas)/2 + 1
	}
	if cfg.Quorum > len(cfg.Replicas) {
		return nil, fmt.Errorf("gateway: quorum %d exceeds %d replicas", cfg.Quorum, len(cfg.Replicas))
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        4 * len(cfg.Replicas),
			MaxIdleConnsPerHost: 4,
		}}
	}
	g := &Gateway{
		cfg:      cfg,
		obs:      obs.Or(cfg.Obs),
		ring:     ring,
		flights:  service.NewGroup[leaseResult](),
		aliases:  service.NewAliases(service.DefaultCacheSize * len(cfg.Replicas)),
		breakers: resilience.NewBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown),
		client:   client,
		backends: make(map[string]service.Backend, len(cfg.Replicas)),
	}
	return g, nil
}

// Ring exposes the routing ring (for /ring and tests).
func (g *Gateway) Ring() *Ring { return g.ring }

// Breakers exposes the per-replica breaker set (for /ring and tests).
func (g *Gateway) Breakers() *resilience.BreakerSet { return g.breakers }

// backend returns (building on first use) the Backend for addr.
func (g *Gateway) backend(addr string) service.Backend {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.backends[addr]
	if !ok {
		if g.cfg.Dial != nil {
			b = g.cfg.Dial(addr)
		} else {
			b = service.NewRemote(service.RemoteConfig{
				BaseURL: addr,
				Client:  g.client,
				Retry: resilience.Policy{
					MaxRetries: g.cfg.Retries,
					BaseDelay:  g.cfg.RetryBase,
					Jitter:     0.25,
				},
				Seed: g.cfg.Seed,
			})
		}
		g.backends[addr] = b
	}
	return b
}

// BeginDrain flips the gateway into draining mode: /readyz answers 503
// and new scoring requests are refused, while requests already being
// routed finish. One-way, like the replica drain.
func (g *Gateway) BeginDrain() {
	if g.draining.CompareAndSwap(false, true) {
		g.count("gateway.drain.begin")
	}
}

// Draining reports whether BeginDrain has been called.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// dispatch walks the ring candidates for key and posts the client's
// body to the first available replica. Retryable failures (transport
// damage, sheds, drains, integrity mismatches) move the walk to the
// next candidate — replica failure is a routing event; non-retryable
// failures (invalid input, deterministic server errors) are returned
// as-is, because every replica would answer identically. A draining
// replica trips its breaker outright (it told us it will refuse work
// until restart); other failures count toward the threshold.
func (g *Gateway) dispatch(ctx context.Context, key [32]byte, body []byte) (leaseResult, error) {
	var lastErr error
	for _, addr := range g.ring.Candidates(key) {
		br := g.breakers.Get(addr)
		if br.Allow() != nil {
			g.count("gateway.route.breaker_skip")
			continue
		}
		raw, hdr, err := g.backend(addr).Post(ctx, body)
		if err == nil {
			br.Record(false)
			return leaseResult{raw: raw, status: hdr.Get(service.HeaderCache), replica: addr}, nil
		}
		if !service.RetryableUpstream(err) {
			// The replica answered authoritatively, which is not a
			// replica-health event, or a deadline fired on it, which
			// is: the dispatch's own or, while that is still live,
			// Config.Client's per-attempt Timeout. Failing over would
			// repeat the answer or outlive the deadline.
			br.Record(ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded))
			return leaseResult{replica: addr}, err
		}
		if isDraining(err) {
			g.count("gateway.replica.draining")
			br.Trip()
		} else {
			br.Record(true)
		}
		g.count("gateway.route.failover")
		lastErr = err
	}
	if ctx.Err() != nil {
		return leaseResult{}, ctx.Err()
	}
	if lastErr == nil {
		lastErr = ErrNoReplica
	} else {
		lastErr = fmt.Errorf("%w (last: %v)", ErrNoReplica, lastErr)
	}
	g.count("gateway.unavailable")
	return leaseResult{}, lastErr
}

// isDraining recognizes a replica's drain refusal: hmeansd maps
// ErrDraining to 503 with the "draining" message.
func isDraining(err error) bool {
	var ue *service.UpstreamError
	return errors.As(err, &ue) && ue.Status == http.StatusServiceUnavailable
}

// Handler returns the gateway mux:
//
//	POST /v1/score   route a score request over the replica ring
//	GET  /healthz    gateway liveness (200 even while draining)
//	GET  /readyz     quorum-aggregated replica readiness
//	GET  /ring       routing state: replicas, arcs, breaker states
//	GET  /version    build description
//
// Observability endpoints are mounted separately via
// obs.Observer.Register, mirroring the replica daemon.
func (g *Gateway) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/score", g.handleScore)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", g.handleReadyz)
	mux.HandleFunc("/ring", g.handleRing)
	mux.HandleFunc("/version", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "hmeansgw %s\n", obs.Version())
	})
	return mux
}

func (g *Gateway) handleScore(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := service.EnsureRequestID(r)
	w.Header().Set(service.HeaderRequestID, reqID)
	sp := g.obs.StartSpan("gateway.request", obs.KV("path", r.URL.Path), obs.KV("request_id", reqID))
	defer sp.End()
	g.count("gateway.requests")
	defer func() {
		if v := recover(); v != nil {
			err := &service.PanicError{Value: v, Stack: debug.Stack()}
			g.count("gateway.panic")
			service.WriteError(w, sp, http.StatusInternalServerError, err)
			g.logAccess(r, reqID, http.StatusInternalServerError, "", "", "", start, err)
		}
	}()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		err := fmt.Errorf("use POST")
		service.WriteError(w, sp, http.StatusMethodNotAllowed, err)
		g.logAccess(r, reqID, http.StatusMethodNotAllowed, "", "", "", start, err)
		return
	}
	if g.Draining() {
		g.count("gateway.draining")
		service.WriteError(w, sp, http.StatusServiceUnavailable, errDrainingGateway)
		g.logAccess(r, reqID, http.StatusServiceUnavailable, "", "", "", start, errDrainingGateway)
		return
	}
	// Read, hash and (unless these exact bytes were keyed before)
	// decode, validate and key, before touching ring or flights: a
	// malformed request must not consume routing state, and the
	// gateway's 400 carries the same message a replica's would.
	body, key, req, err := service.ReadRequest(w, r, g.cfg.MaxBodyBytes, g.aliases, nil)
	if err != nil {
		g.count("gateway.invalid")
		service.WriteError(w, sp, http.StatusBadRequest, err)
		g.logAccess(r, reqID, http.StatusBadRequest, "", "", "", start, err)
		return
	}
	g.add("gateway.read.bytes", len(body))
	if req == nil {
		g.count("gateway.alias.hit")
	} else {
		g.add("gateway.decode.bytes", len(body))
	}
	sp.SetAttr("key", hex.EncodeToString(key[:8]))

	// A follower waits for as long as its own client does. The
	// dispatch is detached from the leader's client, as a replica's
	// compute is from its leader's: followers share it, and a client
	// that leaves is no evidence against the replica. LeaseTTL bounds
	// it instead, so a hung replica fails by the gateway's clock.
	res, leader, err := g.flights.Do(r.Context(), key, func() (leaseResult, bool, error) {
		ctx, cancel := context.WithTimeout(context.WithoutCancel(service.WithRequestID(r.Context(), reqID)), g.cfg.LeaseTTL)
		defer cancel()
		res, err := g.dispatch(ctx, key, body)
		return res, false, err
	})
	role := RoleFollower
	if leader {
		role = RoleLeader
	}
	g.count("gateway.lease." + role)
	sp.SetAttr("route", role)
	sp.SetAttr("replica", res.replica)
	if err != nil {
		code := httpStatus(err)
		service.WriteError(w, sp, code, err)
		g.logAccess(r, reqID, code, res.replica, role, res.status, start, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(service.HeaderCache, res.status)
	w.Header().Set("X-Hmeans-Key", hex.EncodeToString(key[:8]))
	w.Header().Set(HeaderReplica, res.replica)
	w.Header().Set(HeaderRoute, role)
	// Same digest the replica attached: the bytes are untouched, and
	// re-deriving it here re-proves that before every write.
	w.Header().Set(service.HeaderDigest, service.Digest(res.raw))
	w.Write(res.raw)
	sp.SetAttr("status", http.StatusOK)
	if g.obs.Active() {
		g.obs.Metrics().Histogram("gateway.latency_ms", 1, 5, 10, 50, 100, 500, 1000, 5000).
			Observe(float64(time.Since(start).Milliseconds()))
	}
	g.logAccess(r, reqID, http.StatusOK, res.replica, role, res.status, start, nil)
}

// errDrainingGateway mirrors service.ErrDraining for the gateway's own
// shutdown.
var errDrainingGateway = errors.New("gateway: draining, not accepting new requests")

// httpStatus adds routing's answers to the service's status mapping:
// a replica's answer relays its own status, and an exhausted walk or
// the gateway's own drain is 503 (typed, Retry-After). Everything else
// — invalid input, context expiry (an HTTP client timeout included),
// bugs — maps exactly as on a replica.
func httpStatus(err error) int {
	var ue *service.UpstreamError
	switch {
	case errors.As(err, &ue):
		return ue.Status
	case errors.Is(err, ErrNoReplica), errors.Is(err, errDrainingGateway):
		return http.StatusServiceUnavailable
	}
	return service.HTTPStatus(err)
}

// replicaReady is one replica's readiness probe outcome.
type replicaReady struct {
	Addr    string `json:"addr"`
	Ready   bool   `json:"ready"`
	Breaker string `json:"breaker"`
	Error   string `json:"error,omitempty"`
}

// readiness probes every replica's /readyz concurrently.
func (g *Gateway) readiness(ctx context.Context) []replicaReady {
	replicas := g.ring.Replicas()
	out := make([]replicaReady, len(replicas))
	var wg sync.WaitGroup
	for i, addr := range replicas {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			out[i] = replicaReady{Addr: addr, Breaker: g.breakers.Get(addr).State()}
			pctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, addr+"/readyz", nil)
			if err != nil {
				out[i].Error = err.Error()
				return
			}
			resp, err := g.client.Do(req)
			if err != nil {
				out[i].Error = err.Error()
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				out[i].Ready = true
			} else {
				out[i].Error = resp.Status
			}
		}(i, addr)
	}
	wg.Wait()
	return out
}

// handleReadyz aggregates replica readiness into one quorum answer: a
// load balancer in front of several gateways needs a single bit, and
// that bit must reflect whether the fleet behind this gateway can
// actually take traffic — a gateway with no ready replicas is not
// ready, however healthy its own process is.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type readyzBody struct {
		Ready    bool           `json:"ready"`
		Draining bool           `json:"draining,omitempty"`
		Quorum   int            `json:"quorum"`
		Up       int            `json:"up"`
		Replicas []replicaReady `json:"replicas"`
	}
	body := readyzBody{Quorum: g.cfg.Quorum}
	if g.Draining() {
		body.Draining = true
	} else {
		body.Replicas = g.readiness(r.Context())
		for _, rr := range body.Replicas {
			if rr.Ready {
				body.Up++
			}
		}
		body.Ready = body.Up >= g.cfg.Quorum
	}
	w.Header().Set("Content-Type", "application/json")
	if !body.Ready {
		w.Header().Set("Retry-After", service.RetryAfter)
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

// handleRing dumps the routing state: membership, arc shares, breaker
// states, dispatches in flight (leases). This is the artifact
// cluster-smoke uploads — when a smoke run fails, the ring state says
// where keys were being routed at the time.
func (g *Gateway) handleRing(w http.ResponseWriter, r *http.Request) {
	arcs := g.ring.Arcs()
	type arcJSON struct {
		Replica string  `json:"replica"`
		Share   float64 `json:"share"`
		Breaker string  `json:"breaker"`
	}
	out := struct {
		Replicas []arcJSON `json:"replicas"`
		VNodes   int       `json:"vnodes"`
		Quorum   int       `json:"quorum"`
		Leases   int       `json:"leases"`
		Draining bool      `json:"draining"`
	}{
		VNodes:   g.ring.vnodes,
		Quorum:   g.cfg.Quorum,
		Leases:   g.flights.Len(),
		Draining: g.Draining(),
	}
	replicas := g.ring.Replicas()
	sort.Strings(replicas)
	for _, addr := range replicas {
		out.Replicas = append(out.Replicas, arcJSON{
			Replica: addr,
			Share:   arcs[addr],
			Breaker: g.breakers.Get(addr).State(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// logAccess emits one structured line per gateway request, mirroring
// the replica access log's field vocabulary plus the routing fields
// (replica, route). No-op when Config.AccessLog is nil.
func (g *Gateway) logAccess(r *http.Request, reqID string, code int, replica, route, cacheStatus string, start time.Time, err error) {
	l := g.cfg.AccessLog
	if l == nil {
		return
	}
	attrs := make([]slog.Attr, 0, 10)
	attrs = append(attrs,
		slog.String("request_id", reqID),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", code),
		slog.Float64("total_ms", float64(time.Since(start).Nanoseconds())/1e6),
	)
	if replica != "" {
		attrs = append(attrs, slog.String("replica", replica))
	}
	if route != "" {
		attrs = append(attrs, slog.String("route", route))
	}
	if cacheStatus != "" {
		attrs = append(attrs, slog.String("cache", cacheStatus))
	}
	if code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests {
		attrs = append(attrs, slog.String("retry_after", service.RetryAfter))
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	level := slog.LevelInfo
	if code >= 400 {
		level = slog.LevelWarn
	}
	l.LogAttrs(context.Background(), level, "request", attrs...)
}

func (g *Gateway) count(name string) { g.add(name, 1) }

// add is count by n: the byte counters (gateway.read.bytes,
// gateway.decode.bytes) go through it.
func (g *Gateway) add(name string, n int) {
	if g.obs.Active() {
		g.obs.Metrics().Counter(name).Add(int64(n))
	}
}
