package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"hmeans/internal/gateway"
	"hmeans/internal/rng"
	"hmeans/internal/service"
)

// runner holds one workload's inputs and booted tier.
type runner struct {
	spec  spec
	seed  uint64
	suite *service.Request
	seeds *somSeeds
	tier  *tier
	http  *http.Client

	// Primed keys (fleet-hit): request bytes, the response bytes
	// captured at priming, and each key's home replica.
	primedBodies [][]byte
	primed       [][]byte
	homes        []string
}

// setup generates the inputs, boots the tier and runs the untimed
// warm-up: priming the keys on fleet-hit, one request per client
// elsewhere. seeds carries over between repeated set-ups of one run.
func setup(s spec, seed uint64, seeds *somSeeds) (*runner, error) {
	suite, err := s.suite(seed)
	if err != nil {
		return nil, err
	}
	t, err := bootTier(s)
	if err != nil {
		return nil, err
	}
	r := &runner{
		spec:  s,
		seed:  seed,
		suite: suite,
		seeds: seeds,
		tier:  t,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: s.clients,
			MaxConnsPerHost:     s.clients,
			DisableCompression:  true,
		}},
	}
	if s.primedKeys > 0 {
		r.primedBodies = make([][]byte, s.primedKeys)
		r.primed = make([][]byte, s.primedKeys)
		r.homes = make([]string, s.primedKeys)
		for k := range r.primedBodies {
			if r.primedBodies[k], err = body(suite, seeds.take()); err != nil {
				r.close()
				return nil, err
			}
			req, err := decodeRequest(r.primedBodies[k])
			if err != nil {
				r.close()
				return nil, err
			}
			r.homes[k] = t.gw.Ring().Home(req.CacheKey())
		}
	}
	res := r.loop(time.Time{}, r.warmupPerClient(), r.primed != nil)
	r.checkMisses(res)
	if res.failed > 0 {
		r.close()
		return nil, fmt.Errorf("warm-up failed: %s", res.firstFailure)
	}
	return r, nil
}

// warmupPerClient is the number of untimed requests each client sends
// during set-up.
func (r *runner) warmupPerClient() int {
	if r.spec.primedKeys > 0 {
		return r.spec.primedKeys / r.spec.clients
	}
	return 1
}

func (r *runner) close() error {
	r.http.CloseIdleConnections()
	return r.tier.close()
}

// missResp is one miss response kept for the checks that run after
// the timed loop.
type missResp struct {
	somSeed uint64
	raw     []byte
}

// result is what one closed loop observed.
type result struct {
	lat          []time.Duration // every successful request, client-observed
	wall         time.Duration   // loop start to the last completion
	attempted    int
	failed       int
	firstFailure string
	hits         int // 200s served from the cache
	leaders      int // gateway responses that took the leader role
	failovers    int // gateway responses not served by the key's home replica
	misses       []missResp
	inexact      int // misses whose k = n means matched the plain means only within tolerance
	before       usage
	after        usage
}

func (res *result) fail(format string, args ...any) {
	if res.failed == 0 {
		res.firstFailure = fmt.Sprintf(format, args...)
	}
	res.failed++
}

func (res *result) merge(o *result) {
	res.lat = append(res.lat, o.lat...)
	res.attempted += o.attempted
	res.hits += o.hits
	res.leaders += o.leaders
	res.failovers += o.failovers
	res.misses = append(res.misses, o.misses...)
	if o.failed > 0 {
		if res.failed == 0 {
			res.firstFailure = o.firstFailure
		}
		res.failed += o.failed
	}
}

// loop runs the closed loop: every client sends its next request as
// soon as the previous one completed, until deadline (the zero time
// means no deadline) or until it has sent perClient requests (0 means
// no limit); each client sends at least one. It never sleeps or
// retries: a 429 or any other non-200 is a failure. priming captures
// the responses as the primed bytes.
func (r *runner) loop(deadline time.Time, perClient int, priming bool) *result {
	total := &result{}
	parts := make([]*result, r.spec.clients)
	var wg sync.WaitGroup
	total.before = readUsage()
	start := time.Now()
	for c := range parts {
		parts[c] = &result{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := parts[c]
			for i := 0; perClient == 0 || i < perClient; i++ {
				if i > 0 && !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				r.do(c, i, res, priming)
			}
		}(c)
	}
	wg.Wait()
	total.wall = time.Since(start)
	total.after = readUsage()
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// do sends request i of client c and checks the response.
func (r *runner) do(c, i int, res *result, priming bool) {
	key := -1
	var somSeed uint64
	var b []byte
	var err error
	if r.primed != nil {
		// Each client cycles over its own keys: the two in-flight
		// requests never share a content address.
		per := r.spec.primedKeys / r.spec.clients
		key = c*per + i%per
		b = r.primedBodies[key]
	} else {
		somSeed = r.seeds.take()
		if b, err = body(r.suite, somSeed); err != nil {
			res.fail("encoding request: %v", err)
			return
		}
	}
	res.attempted++
	t0 := time.Now()
	resp, err := r.http.Post(r.tier.url+"/v1/score", "application/json", bytes.NewReader(b))
	if err != nil {
		res.fail("request: %v", err)
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		res.fail("reading response: %v", err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		res.fail("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return
	}
	digest := resp.Header.Get(service.HeaderDigest)
	if digest == "" {
		res.fail("200 without %s", service.HeaderDigest)
		return
	}
	if err := service.VerifyDigest(digest, raw); err != nil {
		res.fail("%v", err)
		return
	}
	cache := resp.Header.Get("X-Hmeans-Cache")
	switch {
	case priming:
		if cache != service.CacheMiss {
			res.fail("priming key %d: cache %q, want %q", key, cache, service.CacheMiss)
			return
		}
		r.primed[key] = raw
		res.misses = append(res.misses, missResp{somSeed: 0, raw: raw})
	case key >= 0:
		// A recompute would return the same bytes, so only the cache
		// status tells a hit from a miss.
		if cache != service.CacheHit {
			res.fail("primed key %d: cache %q, want %q", key, cache, service.CacheHit)
			return
		}
		if !bytes.Equal(raw, r.primed[key]) {
			res.fail("key %d: response differs from the bytes captured at priming", key)
			return
		}
	default:
		if cache != service.CacheMiss {
			res.fail("fresh SOM seed %d: cache %q, want %q", somSeed, cache, service.CacheMiss)
			return
		}
		res.misses = append(res.misses, missResp{somSeed: somSeed, raw: raw})
	}
	if r.tier.gw != nil {
		// The clients never share a key and no replica fails, so every
		// request leads its own lease and is served by its home replica.
		if route := resp.Header.Get(gateway.HeaderRoute); route != gateway.RoleLeader {
			res.fail("key %d: gateway route %q, want %q", key, route, gateway.RoleLeader)
			return
		}
		if replica := resp.Header.Get(gateway.HeaderReplica); replica != r.homes[key] {
			res.failovers++
			res.fail("key %d: served by replica %s, not its home %s", key, replica, r.homes[key])
			return
		}
		res.leaders++
	}
	if cache == service.CacheHit {
		res.hits++
	}
	res.lat = append(res.lat, lat)
}

// checkMisses runs checkMiss on every miss the loop kept, counting
// each failing response as failed and each response whose k = n means
// matched only within tolerance as inexact.
func (r *runner) checkMisses(res *result) {
	n := len(r.suite.Table.Workloads)
	for _, m := range res.misses {
		exact, err := checkMiss(m.raw, n)
		switch {
		case err != nil:
			res.fail("SOM seed %d: %v", m.somSeed, err)
		case !exact:
			res.inexact++
		}
	}
}

// kEqualsNTolerance bounds the relative difference between the k = n
// hierarchical means and the plain means. The two are equal in exact
// arithmetic; in floating point the hierarchical path takes each
// singleton's mean (exp(log x) for the geometric mean) and sums in
// cluster order, so the last bit can differ. 1e-12 is thousands of
// ulps wide yet far below any real miscomputation.
const kEqualsNTolerance = 1e-12

// checkMiss checks one miss response: it decodes into
// service.Response, covers n workloads, recommends a k in [2, n], and
// for every vector its k = n hierarchical means equal the plain means
// (within kEqualsNTolerance; exact reports bit-identity).
func checkMiss(raw []byte, n int) (exact bool, err error) {
	var resp service.Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return false, fmt.Errorf("decoding response: %w", err)
	}
	if len(resp.Workloads) != n {
		return false, fmt.Errorf("%d workloads in the response, want %d", len(resp.Workloads), n)
	}
	if resp.RecommendedK < 2 || resp.RecommendedK > n {
		return false, fmt.Errorf("recommended_k %d outside [2, %d]", resp.RecommendedK, n)
	}
	if len(resp.Plain) == 0 {
		return false, fmt.Errorf("no plain means")
	}
	exact = true
	for _, pm := range resp.Plain {
		found := false
		for _, km := range resp.Means {
			if km.K != n || km.Vector != pm.Vector {
				continue
			}
			found = true
			pairs := [3][2]float64{{km.HGM, pm.GM}, {km.HAM, pm.AM}, {km.HHM, pm.HM}}
			for _, p := range pairs {
				if math.Abs(p[0]-p[1]) > kEqualsNTolerance*math.Abs(p[1]) {
					return false, fmt.Errorf("vector %s: k=n means (%v, %v, %v) differ from the plain means (%v, %v, %v)",
						pm.Vector, km.HGM, km.HAM, km.HHM, pm.GM, pm.AM, pm.HM)
				}
				exact = exact && p[0] == p[1]
			}
		}
		if !found {
			return false, fmt.Errorf("vector %s: no means at k=n=%d", pm.Vector, n)
		}
	}
	return exact, nil
}

// recheck recomputes a seeded sample of the kept misses through a
// fresh in-process server and compares the bytes with what the tier
// served; each mismatch counts as a failed response.
func (r *runner) recheck(res *result) error {
	if len(res.misses) == 0 || r.spec.recheck == 0 {
		return nil
	}
	pick := rng.New(r.seed ^ 0x7ec4ec4)
	for j := 0; j < r.spec.recheck && j < len(res.misses); j++ {
		m := res.misses[pick.Intn(len(res.misses))]
		b, err := body(r.suite, m.somSeed)
		if err != nil {
			return err
		}
		req, err := decodeRequest(b)
		if err != nil {
			return err
		}
		raw, _, err := service.New(replicaConfig()).Score(context.Background(), req)
		if err != nil {
			res.fail("recomputing SOM seed %d: %v", m.somSeed, err)
		} else if !bytes.Equal(raw, m.raw) {
			res.fail("SOM seed %d: served bytes differ from a fresh in-process recompute", m.somSeed)
		}
	}
	return nil
}

// decodeRequest decodes request bytes the way the replicas and the
// gateway do: unknown fields rejected.
func decodeRequest(b []byte) (*service.Request, error) {
	var req service.Request
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	return &req, nil
}
