package service

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"hmeans/internal/obs"
	"hmeans/internal/rng"
	"hmeans/internal/simbench"
)

// caseStudyBitsRequest is the case study's method-utilization bit
// table with measured speedup vectors A and B.
func caseStudyBitsRequest(t testing.TB) *Request {
	t.Helper()
	req := caseStudyRequest(t, 1)
	ws, _, err := simbench.CalibratedSuite()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := simbench.HprofTable(ws)
	if err != nil {
		t.Fatal(err)
	}
	req.Config.Kind = "bits"
	req.Table = TableJSON{Workloads: tab.Workloads, Features: tab.Features, Rows: tab.Rows}
	return req
}

// TestWarmServerMatchesFreshServer: a server that reuses the SOM
// starts of suites it scored before, and the kernel schedules of
// grids it trained before, serves the bytes a fresh server serves. Each table is held fixed while the SOM seed varies, so every
// request after a table's first reuses its start: the case study's
// counters and bits at seeds 1–48 with hard and soft placement, and
// 200- and 500-workload synthetic suites at 4 seeds each — 200
// responses.
func TestWarmServerMatchesFreshServer(t *testing.T) {
	type input struct {
		name  string
		req   *Request
		seeds int
		soft  []bool
	}
	inputs := []input{
		{"counters", caseStudyRequest(t, 1), 48, []bool{false, true}},
		{"bits", caseStudyBitsRequest(t), 48, []bool{false, true}},
		{"suite n=200", suiteRequest(200, 1), 4, []bool{false}},
		{"suite n=500", suiteRequest(500, 1), 4, []bool{false}},
	}
	if testing.Short() || raceEnabled {
		for i := range inputs {
			inputs[i].seeds = min(inputs[i].seeds, 2)
		}
	}
	o := obs.New()
	warm := New(Config{Obs: o})
	responses := 0
	for _, in := range inputs {
		for seed := 1; seed <= in.seeds; seed++ {
			for _, soft := range in.soft {
				in.req.Config.Seed, in.req.Config.SoftPlacement = uint64(seed), soft
				got, _, err := warm.Score(context.Background(), in.req)
				if err != nil {
					t.Fatalf("%s seed %d soft=%v: %v", in.name, seed, soft, err)
				}
				want, _, err := New(Config{}).Score(context.Background(), in.req)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s seed %d soft=%v: the warm server's response differs from a fresh server's", in.name, seed, soft)
				}
				responses++
			}
		}
	}
	built := o.Metrics().Counter("som.start.built").Value()
	reused := o.Metrics().Counter("som.start.reused").Value()
	if built != int64(len(inputs)) || reused != int64(responses-len(inputs)) {
		t.Fatalf("%d responses: som.start.built %d, som.start.reused %d; want %d and %d",
			responses, built, reused, len(inputs), responses-len(inputs))
	}
	// The counters and bits tables share the 5 × 4 grid, so three
	// grids carry the 200 responses' kernel schedules.
	built = o.Metrics().Counter("som.schedule.built").Value()
	reused = o.Metrics().Counter("som.schedule.reused").Value()
	if built != 3 || reused != int64(responses-3) {
		t.Fatalf("%d responses: som.schedule.built %d, som.schedule.reused %d; want 3 and %d", responses, built, reused, responses-3)
	}
}

// TestMissesShareSchedule: a replica builds one kernel schedule for a
// grid and step count and reads it on every later miss there, which
// adds nothing to som.kernel_exps. After four misses on the case study
// at four SOM seeds, som.schedule.built is 1, som.schedule.reused 3,
// and som.schedule.bytes the size of the
// 5 × 4 grid's schedule of 10,000 steps: 109,660 entries, 10,000
// reaches, 10,001 offsets, the grid's 14 distinct squared distances
// and 26 distance slots, 8 bytes each.
func TestMissesShareSchedule(t *testing.T) {
	const misses = 4
	o := obs.New()
	metrics := o.Metrics()
	srv := New(Config{Obs: o})
	req := caseStudyRequest(t, 1)
	var exps int64
	for seed := uint64(1); seed <= misses; seed++ {
		req.Config.Seed = seed
		if _, status, err := srv.Score(context.Background(), req); err != nil || status != CacheMiss {
			t.Fatalf("seed %d: status %q, error %v; want a miss", seed, status, err)
		}
		got := metrics.Counter("som.kernel_exps").Value()
		if seed > 1 && got != exps {
			t.Fatalf("miss %d moved som.kernel_exps from %d to %d; a miss on a grid the replica trained before makes no exp", seed, exps, got)
		}
		exps = got
	}
	built := metrics.Counter("som.schedule.built").Value()
	reused := metrics.Counter("som.schedule.reused").Value()
	if built != 1 || reused != misses-1 {
		t.Fatalf("%d misses: som.schedule.built %d, som.schedule.reused %d; want 1 and %d", misses, built, reused, misses-1)
	}
	const scheduleBytes = 8 * (109660 + 10000 + 10001 + 14 + 26)
	if got := metrics.Gauge("som.schedule.bytes").Value(); got != scheduleBytes {
		t.Fatalf("som.schedule.bytes %v, want %d", got, scheduleBytes)
	}
}

// TestConcurrentMissesShareStart: concurrent misses on one suite at
// different SOM seeds read one start and serve a fresh server's bytes.
// Run it under the race detector.
func TestConcurrentMissesShareStart(t *testing.T) {
	const clients = 6
	base := caseStudyRequest(t, 2)
	reqs := make([]*Request, clients)
	want := make([][]byte, clients)
	for i := range reqs {
		req := *base
		req.Config.Seed = uint64(100 + i)
		reqs[i] = &req
		raw, _, err := New(Config{}).Score(context.Background(), reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = raw
	}
	srv := New(Config{MaxInflight: clients})
	for round := 0; round < 2; round++ {
		got := make([][]byte, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for i := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], _, errs[i] = srv.Score(context.Background(), reqs[i])
			}()
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("round %d seed %d: response differs from a fresh server's", round, reqs[i].Config.Seed)
			}
		}
	}
}

// TestScoreWideSuite: a fresh server scores 13 random workloads ×
// 2,000 features, a suite with far more metrics than workloads, within
// a 10 s deadline: the server's own, which bounds the computation a
// request leads. The SOM start's PCA works inside the samples'
// 12-dimensional span, so the feature count costs passes over the
// rows, not a Jacobi on the 2,000 × 2,000 covariance.
func TestScoreWideSuite(t *testing.T) {
	const n, d = 13, 2000
	r := rng.New(1)
	req := &Request{Config: ConfigJSON{Seed: 1}, Scores: map[string][]float64{"A": make([]float64, n)}}
	for j := 0; j < d; j++ {
		req.Table.Features = append(req.Table.Features, fmt.Sprintf("f%04d", j))
	}
	for i := 0; i < n; i++ {
		req.Table.Workloads = append(req.Table.Workloads, fmt.Sprintf("w%02d", i))
		row := make([]float64, d)
		for j := range row {
			row[j] = r.NormFloat64() * float64(j%5+1)
		}
		req.Table.Rows = append(req.Table.Rows, row)
		req.Scores["A"][i] = 1 + float64(i)/4
	}
	body, status, err := New(Config{Timeout: 10 * time.Second}).Score(context.Background(), req)
	if err != nil || status != CacheMiss || len(body) == 0 {
		t.Fatalf("Score returned %d bytes, status %q, error %v; want a miss's response", len(body), status, err)
	}
}
