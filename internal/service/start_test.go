package service

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"hmeans/internal/obs"
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
// starts of suites it scored before serves the bytes a fresh server
// serves. Each table is held fixed while the SOM seed varies, so every
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
