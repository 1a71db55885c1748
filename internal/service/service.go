package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"hmeans/internal/cluster"
	"hmeans/internal/core"
	"hmeans/internal/obs"
)

// DefaultQueueDepth is the -queue-depth default shared by cmd/hmeansd
// and hmeansload's self-managed daemon. Sized empirically with the
// load harness (see EXPERIMENTS.md "Sizing the daemon's queue"): deep
// enough that transient bursts at sustainable rates queue instead of
// shedding, shallow enough that queueing delay cannot push p99 past
// the SLO before the limiter starts saying 429.
const DefaultQueueDepth = 64

// DefaultCacheSize is the -cache-size default shared by cmd/hmeansd
// and hmeansload's self-managed daemon: the result cache's entries,
// and as many aliases (Aliases) next to them. The gateway keeps
// DefaultCacheSize aliases per replica, one for each result the fleet
// caches at this default.
const DefaultCacheSize = 128

// Config configures a scoring server. The zero value is usable:
// worker pool sized to the CPU count, no queue, no cache, no compute
// deadline.
type Config struct {
	// MaxInflight bounds concurrent pipeline computations. Values
	// <= 0 default to the CPU count.
	MaxInflight int
	// QueueDepth bounds callers waiting for a computation slot;
	// arrivals beyond pool+queue are rejected with 429. Negative
	// values mean no queue.
	QueueDepth int
	// CacheSize bounds the content-addressed result cache (entries)
	// and, at the same size, the table of raw-body aliases; <= 0
	// disables both.
	CacheSize int
	// Timeout is the per-request compute deadline enforced through
	// core.DetectClustersCtx; 0 means none. The deadline covers the
	// computation only, not time spent queued — queued callers are
	// still bounded by their own HTTP request contexts.
	Timeout time.Duration
	// Parallelism is ignored: each request runs its pipeline on one
	// goroutine, and MaxInflight is the server's only concurrency.
	//
	// Deprecated: kept only because perfbench/tier.go sets it; it goes
	// with the next benchmark change.
	Parallelism int
	// LinkageAlgorithm is ignored: there is one agglomeration
	// algorithm.
	//
	// Deprecated: kept only because perfbench/tier.go sets it; it goes
	// with the next benchmark change.
	LinkageAlgorithm cluster.Algorithm
	// MaxBodyBytes bounds the request body; <= 0 defaults to 64 MiB.
	MaxBodyBytes int64
	// Obs receives request spans and the service counters. Nil falls
	// back to the process-default observer.
	Obs *obs.Observer
	// AccessLog receives one structured line per HTTP request (see
	// logAccess for the fields). Nil disables access logging entirely
	// — the hot path then takes no extra allocations, preserving the
	// zero-alloc and bit-identical guarantees.
	AccessLog *slog.Logger
}

// Server is the scoring service: Handler exposes it over HTTP, and
// Score is the in-process equivalent the tests and any future
// embedding use.
type Server struct {
	cfg     Config
	obs     *obs.Observer
	cache   *cache[[]byte]
	aliases *Aliases
	group   *group
	lim     *limiter
	// draining flips on BeginDrain: /readyz answers 503 and new
	// scoring work is refused while admitted requests finish.
	draining atomic.Bool
	// computeHook, when non-nil, runs at the top of every pipeline
	// computation. Test seam: it is how the drain and panic-recovery
	// tests make compute slow or explosive deterministically.
	computeHook func(*Request)
}

// New builds a Server from cfg (see Config for defaulting).
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = runtime.NumCPU()
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	return &Server{
		cfg:     cfg,
		obs:     obs.Or(cfg.Obs),
		cache:   newCache[[]byte](cfg.CacheSize),
		aliases: NewAliases(cfg.CacheSize),
		group:   newGroup(),
		lim:     newLimiter(cfg.MaxInflight, cfg.QueueDepth),
	}
}

// RetryAfter is the Retry-After header value (whole seconds) sent
// with every 429: a shed request should come back once the pool has
// drained a slot, and one second is a safe lower bound for a pipeline
// run at suite scale. Exported so load clients (cmd/hmeansload's
// closed loop) and the overload tests share the service's contract
// instead of re-parsing a magic number.
const RetryAfter = "1"

// HeaderCache reports how the response was produced: one of the cache
// statuses below.
const HeaderCache = "X-Hmeans-Cache"

// Cache statuses reported in the HeaderCache response header.
const (
	// CacheMiss marks the request that ran the pipeline.
	CacheMiss = "miss"
	// CacheHit marks a response served from the result cache.
	CacheHit = "hit"
	// CacheCoalesced marks a request that joined an identical
	// in-flight computation and shares its result.
	CacheCoalesced = "coalesced"
)

// Score answers one request in-process: through the cache, the
// coalescing group and the worker pool, exactly like the HTTP path.
// It returns the encoded response bytes (stable for identical
// requests) plus the cache status. ctx bounds queue waiting and — for
// a leader — is superseded by the server's compute deadline.
func (s *Server) Score(ctx context.Context, req *Request) ([]byte, string, error) {
	if s.draining.Load() {
		s.count("service.draining")
		return nil, "", ErrDraining
	}
	if err := req.Validate(); err != nil {
		s.count("service.invalid")
		return nil, "", err
	}
	return s.score(ctx, req.CacheKey(), req, nil)
}

// score answers a validated request under its content key: from the
// result cache, by joining an identical in-flight computation, or by
// computing it. When st is non-nil the leader records queue wait and
// compute time into it for the access log. A nil st (the dark path,
// and every coalesced follower or cache hit) skips all clock reads.
func (s *Server) score(ctx context.Context, key cacheKey, req *Request, st *scoreStats) ([]byte, string, error) {
	if raw, ok := s.cache.get(key); ok {
		s.count("service.cache.hit")
		return raw, CacheHit, nil
	}
	hit := false
	raw, leader, err := s.group.do(ctx, key, func() (raw []byte, left bool, err error) {
		// A panic inside the flight must be converted to an error
		// *here*, before group.do regains control: the leader's normal
		// return is what closes the flight and wakes the coalesced
		// followers, so a panic that escaped this closure would leave
		// every follower waiting forever on a flight that no longer
		// exists.
		defer func() {
			if v := recover(); v != nil {
				s.count("service.panic")
				raw, left, err = nil, false, &PanicError{Value: v, Stack: debug.Stack()}
			}
		}()
		// A request that missed the cache just before the previous
		// flight for key stored its result, and reached the group just
		// after that flight closed, leads a new flight: serve the
		// stored result instead of computing the key a second time.
		if raw, ok := s.cache.get(key); ok {
			hit = true
			return raw, false, nil
		}
		var qStart time.Time
		if st != nil {
			qStart = time.Now()
		}
		if err := s.lim.acquire(ctx); err != nil {
			if st != nil {
				st.queueWait = time.Since(qStart)
			}
			// Short of a shed, acquire fails only when the leader's own
			// context ends while it queues.
			return nil, !errors.Is(err, ErrOverloaded), err
		}
		if st != nil {
			st.queueWait = time.Since(qStart)
		}
		defer s.lim.release()
		// The compute context is detached from the leader's request:
		// coalesced followers share this computation, so one client's
		// disconnect must not poison the result for the rest. The
		// server's per-request deadline still applies.
		cctx := context.Background()
		if s.cfg.Timeout > 0 {
			var cancel context.CancelFunc
			cctx, cancel = context.WithTimeout(cctx, s.cfg.Timeout)
			defer cancel()
		}
		var cStart time.Time
		if st != nil {
			cStart = time.Now()
		}
		resp, err := s.compute(cctx, req)
		if st != nil {
			st.compute = time.Since(cStart)
		}
		if err != nil {
			return nil, false, err
		}
		raw, err = json.Marshal(resp)
		if err != nil {
			return nil, false, fmt.Errorf("service: encoding response: %w", err)
		}
		raw = append(raw, '\n')
		s.cache.put(key, raw)
		return raw, false, nil
	})
	status := CacheCoalesced
	switch {
	case hit:
		status = CacheHit
	case leader:
		status = CacheMiss
	}
	if err != nil {
		s.countErr(err)
		return nil, status, err
	}
	s.count("service.cache." + status)
	return raw, status, nil
}

// compute runs the pipeline and assembles the full Response in the
// deterministic ordering the cache depends on.
func (s *Server) compute(ctx context.Context, req *Request) (*Response, error) {
	if s.computeHook != nil {
		s.computeHook(req)
	}
	t, err := req.table()
	if err != nil {
		return nil, err
	}
	cfg := req.pipelineConfig()
	cfg.Obs = s.obs
	p, err := core.DetectClustersCtx(ctx, t, cfg)
	if err != nil {
		return nil, err
	}
	n := len(p.Workloads)
	names := req.vectorNames()
	aligned := make(map[string][]float64, len(names))
	for _, name := range names {
		v, err := p.AlignScores(req.Scores[name])
		if err != nil {
			return nil, badRequestf("score vector %q: %v", name, err)
		}
		for i, x := range v {
			if !(x > 0) || x > maxFinite {
				return nil, badRequestf("score vector %q: workload %s has non-positive or non-finite score %v (all three mean families need positive finite scores)",
					name, p.Workloads[i], x)
			}
		}
		aligned[name] = v
	}

	resp := &Response{
		Workloads:  p.Workloads,
		Positions:  positionsJSON(p),
		Dendrogram: dendrogramJSON(p.Dendrogram),
	}
	if p.Map != nil {
		resp.SOM = &SOMJSON{Rows: p.Map.Rows(), Cols: p.Map.Cols()}
	}
	for _, q := range p.Quarantined {
		resp.Quarantined = append(resp.Quarantined, QuarantineJSON{Workload: q.Workload, Index: q.Index, Reason: q.Reason})
	}

	kMin, kMax := req.sweepRange(n)
	recommended := 1
	if kMax >= 2 && kMin <= kMax {
		if len(names) >= 2 {
			// Two or more machines: the paper's full criterion,
			// silhouette plus ratio damping of the first two vectors
			// (sorted by name, so the choice is deterministic).
			rec, err := p.RecommendK(core.Geometric, aligned[names[0]], aligned[names[1]], kMin, kMax)
			if err != nil {
				return nil, err
			}
			recommended = rec.K
		} else {
			rec, err := p.RecommendKQuality(kMin, kMax)
			if err != nil {
				return nil, err
			}
			recommended = rec.K
		}
	}
	resp.RecommendedK = recommended

	cutK := req.K
	if cutK == 0 {
		cutK = recommended
	}
	cut, err := p.ClusteringAtK(cutK)
	if err != nil {
		return nil, err
	}
	members, err := p.ClusterMembers(cutK)
	if err != nil {
		return nil, err
	}
	resp.Cut = CutJSON{K: cutK, Labels: cut.Labels, Members: members}

	// One walk of the dendrogram's cuts and one pooled scorer serve the
	// whole sweep: the walk relabels in place from k to k+1, Reset
	// re-plans the scorer per k and each Mean call is allocation-free,
	// so the k×vectors×3 mean evaluations of a cache-miss request cost
	// O(results) allocations, not O(evaluations).
	if kMin <= kMax {
		sc := scorerPool.Get().(*core.Scorer)
		defer scorerPool.Put(sc)
		err := p.Dendrogram.EachCut(kMin, kMax, func(cut cluster.Assignment) error {
			if err := sc.Reset(core.Clustering{Labels: cut.Labels, K: cut.K}); err != nil {
				return err
			}
			for _, name := range names {
				m := KMeans{K: cut.K, Vector: name}
				var err error
				if m.HGM, err = sc.Mean(core.Geometric, aligned[name]); err != nil {
					return err
				}
				if m.HAM, err = sc.Mean(core.Arithmetic, aligned[name]); err != nil {
					return err
				}
				if m.HHM, err = sc.Mean(core.Harmonic, aligned[name]); err != nil {
					return err
				}
				resp.Means = append(resp.Means, m)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for _, name := range names {
		pm := PlainMeans{Vector: name}
		if pm.GM, err = core.PlainMean(core.Geometric, aligned[name]); err != nil {
			return nil, err
		}
		if pm.AM, err = core.PlainMean(core.Arithmetic, aligned[name]); err != nil {
			return nil, err
		}
		if pm.HM, err = core.PlainMean(core.Harmonic, aligned[name]); err != nil {
			return nil, err
		}
		resp.Plain = append(resp.Plain, pm)
	}
	return resp, nil
}

// maxFinite rejects +Inf while keeping every finite float64: x >
// maxFinite is true only for +Inf (NaN fails the x > 0 test).
const maxFinite = 1.7976931348623157e308

// scorerPool recycles hierarchical-mean scorers across requests; a
// scorer retains only its gather plan and scratch buffers, never
// request data, so pooling is safe.
var scorerPool = sync.Pool{New: func() any { return new(core.Scorer) }}

func positionsJSON(p *core.Pipeline) [][]float64 {
	out := make([][]float64, len(p.Positions))
	for i, v := range p.Positions {
		out[i] = []float64(v)
	}
	return out
}

// Handler returns the service mux:
//
//	POST /v1/score   score a characterization + score vectors
//	GET  /healthz    liveness ("ok") — stays 200 while draining
//	GET  /readyz     readiness — 503 once BeginDrain is called
//	GET  /version    build description
//
// Observability endpoints (/metrics, /trace, /debug/*) are mounted
// separately by the daemon via obs.Observer.Register, so embedders
// can choose to keep them off the service port.
func (s *Server) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/score", s.handleScore)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	// Readiness is distinct from liveness: a draining process is alive
	// (it is still finishing admitted work) but must not receive new
	// traffic. Orchestrators probe /readyz; /healthz deciding restarts
	// must keep answering 200 through the drain or the drain gets cut
	// short by a kill.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			w.Header().Set("Retry-After", RetryAfter)
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/version", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "hmeansd %s\n", obs.Version())
	})
	return mux
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := EnsureRequestID(r)
	w.Header().Set(HeaderRequestID, reqID)
	sp := s.obs.StartSpan("request", obs.KV("path", r.URL.Path), obs.KV("request_id", reqID))
	defer sp.End()
	s.count("service.requests")
	// Timing collection exists for the access log only; the dark path
	// (AccessLog nil) must not pay its clock reads or allocation.
	var st *scoreStats
	if s.cfg.AccessLog != nil {
		st = new(scoreStats)
	}
	// Backstop panic recovery for everything outside the coalescing
	// group (decode, validation, response writing). Panics inside a
	// flight are converted by the leader closure itself — they must
	// not unwind past group.do — so this recover is the rare path.
	defer func() {
		if v := recover(); v != nil {
			err := &PanicError{Value: v, Stack: debug.Stack()}
			s.count("service.panic")
			WriteError(w, sp, http.StatusInternalServerError, err)
			s.logAccess(r, reqID, http.StatusInternalServerError, "", nil, st, start, err)
		}
	}()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		err := fmt.Errorf("use POST")
		WriteError(w, sp, http.StatusMethodNotAllowed, err)
		s.logAccess(r, reqID, http.StatusMethodNotAllowed, "", nil, st, start, err)
		return
	}
	if s.draining.Load() {
		s.count("service.draining")
		WriteError(w, sp, http.StatusServiceUnavailable, ErrDraining)
		s.logAccess(r, reqID, http.StatusServiceUnavailable, "", nil, st, start, ErrDraining)
		return
	}
	// A byte-identical replay of a body this replica keyed before is
	// served from its alias without a decode, as long as the result
	// is still cached; otherwise the body is decoded again.
	var raw []byte
	body, key, req, err := ReadRequest(w, r, s.cfg.MaxBodyBytes, s.aliases, func(key cacheKey) (ok bool) {
		raw, ok = s.cache.get(key)
		return ok
	})
	if err != nil {
		s.count("service.invalid")
		WriteError(w, sp, http.StatusBadRequest, err)
		s.logAccess(r, reqID, http.StatusBadRequest, "", nil, st, start, err)
		return
	}
	status := CacheHit
	s.add("service.read.bytes", len(body))
	if req == nil {
		s.count("service.alias.hit")
		s.count("service.cache.hit")
	} else {
		s.add("service.decode.bytes", len(body))
		sp.SetAttr("workloads", len(req.Table.Workloads))
		sp.SetAttr("vectors", len(req.Scores))
		raw, status, err = s.score(r.Context(), key, req, st)
	}
	sp.SetAttr("cache", status)
	if err != nil {
		code := HTTPStatus(err)
		WriteError(w, sp, code, err)
		s.logAccess(r, reqID, code, status, nil, st, start, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderCache, status)
	w.Header().Set("X-Hmeans-Key", hex.EncodeToString(key[:8]))
	w.Header().Set(HeaderDigest, Digest(raw))
	w.Write(raw)
	sp.SetAttr("status", http.StatusOK)
	if s.obs.Active() {
		s.obs.Metrics().Histogram("service.latency_ms", 1, 5, 10, 50, 100, 500, 1000, 5000).
			Observe(float64(time.Since(start).Milliseconds()))
	}
	s.logAccess(r, reqID, http.StatusOK, status, key[:8], st, start, nil)
}

// maxPresize caps the declared length ReadRequest trusts when it
// sizes a body's buffer before any of it arrives. A Content-Length up
// to the cap sizes the buffer exactly, so a case-study body (about
// 46 KB) is read in one allocation; a larger or lying declaration
// costs at most the cap up front, and the buffer grows by doubling
// only as bytes arrive, still bounded by maxBytes.
const maxPresize = 64 << 10

// ReadRequest reads a POST /v1/score body the way every hop of the
// tier does: the whole body, at most maxBytes, into one buffer sized
// from its Content-Length (capped at maxPresize), hashed with SHA-256.
// When aliases maps that hash to a content key and known accepts the
// key (a nil known accepts any), it returns the key with a nil
// Request and decodes nothing. Otherwise it decodes the body with
// unknown fields rejected, validates and keys the request, and only
// then records the alias, so a body that fails never enters the
// table. Any failure is invalid input, which the caller answers with
// 400. body is the client's bytes, to forward as they are.
func ReadRequest(w http.ResponseWriter, r *http.Request, maxBytes int64, aliases *Aliases, known func(key [32]byte) bool) (body []byte, key [32]byte, req *Request, err error) {
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		// The extra MinRead leaves room for the read that returns EOF,
		// which would otherwise double a buffer the body just filled.
		buf.Grow(int(min(r.ContentLength, maxPresize)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBytes)); err != nil {
		return nil, key, nil, fmt.Errorf("decoding request: %w", err)
	}
	body = buf.Bytes()
	sum := sha256.Sum256(body)
	if k, ok := aliases.get(sum); ok && (known == nil || known(k)) {
		return body, k, nil, nil
	}
	req = new(Request)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, key, nil, fmt.Errorf("decoding request: %w", err)
	}
	if err := req.Validate(); err != nil {
		return nil, key, nil, err
	}
	key = req.CacheKey()
	aliases.put(sum, key)
	return body, key, req, nil
}

// HTTPStatus maps the error taxonomy to HTTP statuses, mirroring the
// CLI exit codes (usage/invalid input → 400 like exit 2/3, timeout →
// 504 like the "timed out" exit 1 path, overload → 429, the rest →
// 500).
func HTTPStatus(err error) int {
	var br *BadRequestError
	if errors.As(err, &br) {
		return http.StatusBadRequest
	}
	var de interface {
		error
		DataError() bool
	}
	if errors.As(err, &de) && de.DataError() {
		return http.StatusBadRequest
	}
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// WriteError answers a failed request: the status, the Retry-After
// contract on 429 and 503, and the JSON error body {"error": "..."}
// that clients decode into UpstreamError. sp records both.
func WriteError(w http.ResponseWriter, sp *obs.Span, status int, err error) {
	sp.SetAttr("status", status)
	sp.SetAttr("error", err.Error())
	// 429 (shed) and 503 (draining) are both "come back shortly"
	// conditions; the Retry-After contract covers them identically.
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", RetryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (s *Server) count(name string) { s.add(name, 1) }

// add is count by n: the byte counters (service.read.bytes,
// service.decode.bytes) go through it.
func (s *Server) add(name string, n int) {
	if s.obs.Active() {
		s.obs.Metrics().Counter(name).Add(int64(n))
	}
}

func (s *Server) countErr(err error) {
	switch HTTPStatus(err) {
	case http.StatusTooManyRequests:
		s.count("service.rejected")
	case http.StatusGatewayTimeout:
		s.count("service.timeout")
	case http.StatusServiceUnavailable:
		s.count("service.unavailable")
	case http.StatusBadRequest:
		s.count("service.invalid")
	default:
		s.count("service.internal")
	}
}

// CacheLen reports the number of cached responses (for tests and the
// daemon's shutdown log line).
func (s *Server) CacheLen() int { return s.cache.len() }

// Queued reports the number of requests waiting for a computation
// slot.
func (s *Server) Queued() int64 { return s.lim.queued() }

// Inflight reports the number of running computations.
func (s *Server) Inflight() int { return s.lim.inflight() }
