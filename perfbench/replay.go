package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"hmeans/internal/chars"
	"hmeans/internal/cluster"
	"hmeans/internal/core"
	"hmeans/internal/obs"
	"hmeans/internal/resilience"
	"hmeans/internal/service"
	"hmeans/internal/som"
	"hmeans/internal/vecmath"
)

// replay re-runs the workload's requests one at a time through every
// layer's public functions until deadline, and at least minReplays
// times, recording a span around each call. The tier has finished its
// timed loop, so the replay has the machine to itself.
func (r *runner) replay(deadline time.Time) (*ledger, error) {
	l := &ledger{tr: newTracer(), counts: map[string]float64{}}
	if r.primed != nil {
		return l, r.replayHits(l, deadline)
	}
	return l, r.replayMisses(l, deadline)
}

// minReplays makes every ledger row a median of at least three
// requests, even when one suite-500 replay takes seconds.
const minReplays = 3

// replayMisses replays fresh-seed requests as the replica computes
// them. One untraced pass with a counting observer first takes the
// work counts and primes the key the lookup call is timed on.
func (r *runner) replayMisses(l *ledger, deadline time.Time) error {
	ctx := context.Background()
	b0, err := body(r.suite, r.seeds.take())
	if err != nil {
		return err
	}
	req0, err := decodeRequest(b0)
	if err != nil {
		return err
	}
	agg := obs.NewAggregator()
	o := obs.New(agg)
	var sc core.Scorer
	raw0, work, err := replayMiss(nil, &sc, b0, nil, nil, o)
	if err != nil {
		return err
	}
	// The lookup server computes the first request once: that primes
	// the key and proves the replay serves the replica's exact bytes.
	lookup := service.New(replicaConfig())
	served, _, err := lookup.Score(ctx, req0)
	if err != nil {
		return err
	}
	if !bytes.Equal(served, raw0) {
		return errors.New("replay: bytes differ from the service's response to the same request")
	}
	// som.bmu_evals and vecmath.pairs follow from the configuration and
	// the suite size, not from counters inside the layers: they count
	// BMU searches (training presentations plus one per placement) and
	// condensed-matrix entries, so a search that prunes more units or a
	// build that skips pairs does not change them.
	n := float64(len(r.suite.Table.Workloads))
	steps := o.Metrics().Counter("som.steps").Value() + o.Metrics().Counter("som.epochs").Value()*int64(n)
	spans := map[string]int{}
	for _, st := range agg.Summary() {
		spans[st.Name] = st.Count
	}
	l.counts["som.bmu_evals"] = float64(steps) + n
	l.counts["cluster.cuts"] = float64(spans["cut"] + work.qualityCuts + 1)
	l.counts["core.mean_evals"] = float64(spans["means"] + work.means)
	l.counts["service.request_kb"] = float64(len(b0)) / 1024
	l.counts["service.response_kb"] = float64(len(raw0)) / 1024

	for i := 0; i < minReplays || time.Now().Before(deadline); i++ {
		b, err := body(r.suite, r.seeds.take())
		if err != nil {
			return err
		}
		l.tr.req = i
		raw, work, err := replayMiss(l.tr, &sc, b, lookup, req0, nil)
		if err != nil {
			return err
		}
		if _, err := checkMiss(raw, int(n)); err != nil {
			return fmt.Errorf("replayed request %d: %w", i, err)
		}
		l.counts["vecmath.pairs"] = float64(work.pairs)
		l.replayed++
	}
	return nil
}

// missWork is the work a miss replay observed directly.
type missWork struct {
	qualityCuts int // dendrogram cuts inside the quality sweep
	means       int // Mean and PlainMean calls of the response sweep
	pairs       int // entries of the condensed distance matrix
}

// replayMiss computes one request the way service.Server computes a
// cache miss, calling each layer's public function with the arguments
// the pipeline passes. With a tracer every call is timed and the work
// done inside a composite call (core.DetectClustersCtx,
// cluster.NewDendrogramOpts, RecommendK) is replayed through the inner
// layer's own function as a child span. lookup/primed time the cache
// probe on a primed key of the same shape; o (untraced passes only)
// observes the pipeline.
func replayMiss(t *tracer, sc *core.Scorer, b []byte, lookup *service.Server, primed *service.Request, o *obs.Observer) ([]byte, missWork, error) {
	var work missWork
	ctx := context.Background()
	do := func(name string, fn func() error) (int, error) {
		if t == nil {
			return 0, fn()
		}
		return t.do(0, name, fn)
	}
	var req *service.Request
	if _, err := do("service.decode_ms", func() (err error) { req, err = decodeRequest(b); return err }); err != nil {
		return nil, work, err
	}
	if t != nil {
		if err := replayLookup(t, 0, lookup, primed); err != nil {
			return nil, work, err
		}
	}

	var cfg core.PipelineConfig
	cfg.Parallelism = replicaConfig().Parallelism
	cfg.LinkageAlgorithm = replicaConfig().LinkageAlgorithm
	cfg.SOM.Seed = req.Config.Seed
	cfg.Obs = o
	var p *core.Pipeline
	pl, err := do("core.pipeline_ms", func() error {
		tab, err := chars.NewTable(req.Table.Workloads, req.Table.Features, req.Table.Rows)
		if err != nil {
			return err
		}
		p, err = core.DetectClustersCtx(ctx, tab, cfg)
		return err
	})
	if err != nil {
		return nil, work, err
	}
	if t != nil {
		if work.pairs, err = replayPipeline(t, pl, req, cfg, p); err != nil {
			return nil, work, err
		}
	}

	names := make([]string, 0, len(req.Scores))
	for name := range req.Scores {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) != 2 {
		return nil, work, fmt.Errorf("replay needs two score vectors, got %d", len(names))
	}
	aligned := map[string][]float64{}
	for _, name := range names {
		v, err := p.AlignScores(req.Scores[name])
		if err != nil {
			return nil, work, err
		}
		aligned[name] = v
	}
	n := len(p.Workloads)
	kMin, kMax := 2, n
	var rec core.KRecommendation
	rk, err := do("core.recommendk_ms", func() error {
		var err error
		rec, err = p.RecommendK(core.Geometric, aligned[names[0]], aligned[names[1]], kMin, kMax)
		return err
	})
	if err != nil {
		return nil, work, err
	}
	work.qualityCuts = len(rec.Quality)
	if t != nil {
		if _, err := t.do(rk, "cluster.quality_sweep_ms", func() error {
			_, err := p.Dendrogram.QualitySweep(p.Positions, kMin, kMax)
			return err
		}); err != nil {
			return nil, work, err
		}
	}

	resp := &service.Response{
		Workloads:    p.Workloads,
		Positions:    make([][]float64, len(p.Positions)),
		Dendrogram:   dendrogramJSON(p.Dendrogram),
		RecommendedK: rec.K,
		SOM:          &service.SOMJSON{Rows: p.Map.Rows(), Cols: p.Map.Cols()},
	}
	for i, v := range p.Positions {
		resp.Positions[i] = []float64(v)
	}
	if _, err := do("core.sweep_ms", func() error {
		return sweep(p, sc, resp, names, aligned, kMin, kMax)
	}); err != nil {
		return nil, work, err
	}
	work.means = 3 * (len(resp.Means) + len(resp.Plain))

	var raw []byte
	if _, err := do("service.encode_ms", func() error {
		var err error
		raw, err = json.Marshal(resp)
		raw = append(raw, '\n')
		return err
	}); err != nil {
		return nil, work, err
	}
	// The replica derives the key again for the X-Hmeans-Key header.
	if _, err := do("service.cachekey_us", func() error { req.CacheKey(); return nil }); err != nil {
		return nil, work, err
	}
	if _, err := do("service.digest_us", func() error {
		return service.VerifyDigest(service.Digest(raw), raw)
	}); err != nil {
		return nil, work, err
	}
	return raw, work, nil
}

// replayLookup times service.Server.Score on a primed key — the cache
// probe every request pays — with replays of the validation and the
// content-address hash it runs first.
func replayLookup(t *tracer, parent int, srv *service.Server, req *service.Request) error {
	lk, err := t.do(parent, "service.lookup_us", func() error {
		_, status, err := srv.Score(context.Background(), req)
		if err == nil && status != service.CacheHit {
			err = fmt.Errorf("cache %q on a primed key", status)
		}
		return err
	})
	if err != nil {
		return err
	}
	if _, err := t.do(lk, "service.validate_us", req.Validate); err != nil {
		return err
	}
	_, err = t.do(lk, "service.cachekey_us", func() error { req.CacheKey(); return nil })
	return err
}

// replayPipeline replays the stages of core.DetectClustersCtx through
// their layers' functions, as children of the pipeline span, and
// checks each stage reproduces the pipeline's own result. It returns
// the number of point pairs the condensed build computed.
func replayPipeline(t *tracer, pl int, req *service.Request, cfg core.PipelineConfig, p *core.Pipeline) (int, error) {
	ctx := context.Background()
	var prepared *chars.Table
	if _, err := t.do(pl, "chars.preprocess_ms", func() error {
		tab, err := chars.NewTable(req.Table.Workloads, req.Table.Features, req.Table.Rows)
		if err != nil {
			return err
		}
		prepared, _ = chars.PreprocessCounters(tab)
		return nil
	}); err != nil {
		return 0, err
	}
	vectors := prepared.Vectors()
	sc := cfg.SOM
	sc.Rows, sc.Cols = som.GridFor(len(vectors))
	sc.Parallelism = cfg.Parallelism
	var m *som.Map
	if _, err := t.do(pl, "som.train_ms", func() error {
		var err error
		m, err = som.TrainCtx(ctx, sc, vectors)
		return err
	}); err != nil {
		return 0, err
	}
	if !m.Equal(p.Map) {
		return 0, errors.New("replay: som.TrainCtx map differs from the pipeline's")
	}
	var pos []vecmath.Vector
	if _, err := t.do(pl, "som.place_ms", func() error {
		pos = m.PlacementsP(vectors, cfg.Parallelism)
		return nil
	}); err != nil {
		return 0, err
	}
	var d *cluster.Dendrogram
	dd, err := t.do(pl, "cluster.dendrogram_ms", func() error {
		var err error
		d, err = cluster.NewDendrogramOpts(pos, cfg.Metric, cfg.Linkage, cluster.Options{
			Workers:   cfg.Parallelism,
			Ctx:       ctx,
			Algorithm: cfg.LinkageAlgorithm,
		})
		return err
	})
	if err != nil {
		return 0, err
	}
	if fmt.Sprint(d.Merges()) != fmt.Sprint(p.Dendrogram.Merges()) {
		return 0, errors.New("replay: dendrogram differs from the pipeline's")
	}
	var cm *vecmath.CondensedMatrix
	if _, err := t.do(dd, "vecmath.condensed_ms", func() error {
		cm = vecmath.CondensedDistanceMatrixP(cfg.Metric, pos, cfg.Parallelism)
		return nil
	}); err != nil {
		return 0, err
	}
	return len(cm.Data()), nil
}

// sweep fills the response's cut and means the way the replica does:
// the reported cut, then per k one cut, a scorer re-plan and three
// means per vector, then the plain means.
func sweep(p *core.Pipeline, sc *core.Scorer, resp *service.Response, names []string, aligned map[string][]float64, kMin, kMax int) error {
	cut, err := p.ClusteringAtK(resp.RecommendedK)
	if err != nil {
		return err
	}
	members, err := p.ClusterMembers(resp.RecommendedK)
	if err != nil {
		return err
	}
	resp.Cut = service.CutJSON{K: resp.RecommendedK, Labels: cut.Labels, Members: members}
	kinds := []core.MeanKind{core.Geometric, core.Arithmetic, core.Harmonic}
	for k := kMin; k <= kMax; k++ {
		c, err := p.ClusteringAtK(k)
		if err != nil {
			return err
		}
		if err := sc.Reset(c); err != nil {
			return err
		}
		for _, name := range names {
			var v [3]float64
			for i, kind := range kinds {
				if v[i], err = sc.Mean(kind, aligned[name]); err != nil {
					return err
				}
			}
			resp.Means = append(resp.Means, service.KMeans{K: k, Vector: name, HGM: v[0], HAM: v[1], HHM: v[2]})
		}
	}
	for _, name := range names {
		var v [3]float64
		for i, kind := range kinds {
			if v[i], err = core.PlainMean(kind, aligned[name]); err != nil {
				return err
			}
		}
		resp.Plain = append(resp.Plain, service.PlainMeans{Vector: name, GM: v[0], AM: v[1], HM: v[2]})
	}
	return nil
}

func dendrogramJSON(d *cluster.Dendrogram) service.DendrogramJSON {
	merges := d.Merges()
	out := service.DendrogramJSON{N: d.Len(), Linkage: d.Linkage().String(), Merges: make([]service.MergeJSON, len(merges))}
	for i, m := range merges {
		out.Merges[i] = service.MergeJSON{A: m.A, B: m.B, Distance: m.Distance, Size: m.Size}
	}
	return out
}

// replayHits replays primed requests hop by hop: the gateway's decode,
// validation, hash and ring walk, its dispatch to the home replica
// (real HTTP, with the replica's work replayed as children), and the
// digests on both hops. Each request is then sent end to end through
// the gateway and straight to its home replica, for gateway.hop_ms.
func (r *runner) replayHits(l *ledger, deadline time.Time) error {
	ctx := context.Background()
	gc := gatewayConfig(nil)
	client := &http.Client{Transport: &http.Transport{MaxIdleConns: 4 * len(r.tier.replicas), MaxIdleConnsPerHost: 4}}
	defer client.CloseIdleConnections()
	remotes := map[string]*service.Remote{}
	servers := map[string]*service.Server{}
	for _, d := range r.tier.replicas {
		remotes[d.URL] = service.NewRemote(service.RemoteConfig{
			BaseURL: d.URL,
			Client:  client,
			Retry:   resilience.Policy{MaxRetries: gc.Retries, BaseDelay: gc.RetryBase, Jitter: 0.25},
			Seed:    gc.Seed,
		})
		servers[d.URL] = d.Server()
	}
	l.counts["service.request_kb"] = float64(len(r.primedBodies[0])) / 1024
	l.counts["service.response_kb"] = float64(len(r.primed[0])) / 1024
	t := l.tr
	for i := 0; i < minReplays || time.Now().Before(deadline); i++ {
		t.req = i
		k := i % len(r.primedBodies)
		b := r.primedBodies[k]
		var req *service.Request
		if _, err := t.do(0, "service.decode_ms", func() (err error) { req, err = decodeRequest(b); return err }); err != nil {
			return err
		}
		if _, err := t.do(0, "service.validate_us", req.Validate); err != nil {
			return err
		}
		var key [32]byte
		if _, err := t.do(0, "service.cachekey_us", func() error { key = req.CacheKey(); return nil }); err != nil {
			return err
		}
		var cands []string
		if _, err := t.do(0, "gateway.route_us", func() error { cands = r.tier.gw.Ring().Candidates(key); return nil }); err != nil {
			return err
		}
		home := cands[0]
		var raw []byte
		dp, err := t.do(0, "gateway.dispatch_ms", func() error {
			var err error
			raw, _, err = remotes[home].Score(ctx, req)
			return err
		})
		if err != nil {
			return err
		}
		if !bytes.Equal(raw, r.primed[k]) {
			return fmt.Errorf("replayed key %d: bytes differ from the primed response", k)
		}
		// What the home replica did inside the dispatch: decode the
		// re-encoded request, the cache lookup, the header key and the
		// digest (with the dispatcher's verification of it).
		fwd, err := json.Marshal(req)
		if err != nil {
			return err
		}
		var rreq *service.Request
		if _, err := t.do(dp, "service.decode_ms", func() (err error) { rreq, err = decodeRequest(fwd); return err }); err != nil {
			return err
		}
		if err := replayLookup(t, dp, servers[home], rreq); err != nil {
			return err
		}
		if _, err := t.do(dp, "service.cachekey_us", func() error { rreq.CacheKey(); return nil }); err != nil {
			return err
		}
		if _, err := t.do(dp, "service.digest_us", func() error { return service.VerifyDigest(service.Digest(raw), raw) }); err != nil {
			return err
		}
		// The gateway's digest of what it relays, and the client's check.
		if _, err := t.do(0, "service.digest_us", func() error { return service.VerifyDigest(service.Digest(raw), raw) }); err != nil {
			return err
		}
		viaGW, err := r.timedPost(r.tier.url, b, r.primed[k])
		if err != nil {
			return err
		}
		direct, err := r.timedPost(home, b, r.primed[k])
		if err != nil {
			return err
		}
		l.viaGW = append(l.viaGW, viaGW)
		l.direct = append(l.direct, direct)
		l.replayed++
	}
	return nil
}

// timedPost sends b to base's /v1/score and returns the client-observed
// latency, checking the bytes against want.
func (r *runner) timedPost(base string, b, want []byte) (time.Duration, error) {
	t0 := time.Now()
	resp, err := r.http.Post(base+"/v1/score", "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(raw, want) {
		return 0, fmt.Errorf("%s: status %d or bytes differ from the primed response", base, resp.StatusCode)
	}
	return lat, nil
}
