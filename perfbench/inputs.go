package main

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	"hmeans/internal/rng"
	"hmeans/internal/service"
	"hmeans/internal/simbench"
)

// Workload names, as passed to --workload.
const (
	wlCaseStudyMiss = "casestudy-miss"
	wlFleetHit      = "fleet-hit"
	wlSuite500      = "suite-500"
)

// spec describes one workload: its topology, its client count and the
// suite every request scores. All three are closed loops, because the
// callers of a scoring service (CI jobs, dashboards) wait for each
// score before asking for the next one.
type spec struct {
	name string
	// clients is the number of closed-loop clients, each with one
	// connection, so at most one request per client is in flight.
	clients int
	// replicas is the number of hmeansd replicas; gateway puts an
	// hmeansgw in front of them.
	replicas int
	gateway  bool
	// primedKeys > 0 primes that many SOM seeds during set-up and
	// replays them; 0 sends a fresh SOM seed with every request.
	primedKeys int
	// recheck is how many miss responses per run are recomputed
	// through a fresh in-process server and compared byte for byte.
	recheck int
	// suite builds the scored suite from the run seed.
	suite func(seed uint64) (*service.Request, error)
}

// specs lists the workloads. Each exists for a distinct behaviour of
// the scoring tier; see README.md for the measured reasons.
var specs = map[string]spec{
	// casestudy-miss is the interactive "score my suite" call: the
	// paper's 13-workload case study with a fresh SOM seed per request,
	// one client against one replica. SOM training dominates its CPU,
	// every request writes the result cache (evicting past 128
	// entries), and the suite sits below both auto thresholds (20-unit
	// grid with brute BMU search, scan linkage).
	wlCaseStudyMiss: {name: wlCaseStudyMiss, clients: 1, replicas: 1, recheck: 3, suite: caseStudy},
	// fleet-hit is the read side of the cache and the only workload on
	// which the gateway works: the case study at 16 SOM seeds, primed
	// during set-up and replayed by two clients through a gateway over
	// two replicas. Each client cycles over its own eight keys, so the
	// two in-flight requests never share a key and never coalesce.
	wlFleetHit: {name: wlFleetHit, clients: 2, replicas: 2, gateway: true, primedKeys: 16, suite: caseStudy},
	// suite-500 is fleet-scale scoring: 500 workloads × 40 counters in
	// 16 blobs with two score vectors, a fresh SOM seed per request and
	// two clients against one replica, so both cores stay busy. It sits
	// above both auto thresholds (pruned BMU search, NN-chain linkage)
	// and its k-sweep (RecommendK's quality sweep over k = 2..500) is
	// nearly as large as its SOM training.
	wlSuite500: {name: wlSuite500, clients: 2, replicas: 1, recheck: 1, suite: suite500},
}

// workloadOrder is the order the workloads are listed in.
var workloadOrder = []string{wlCaseStudyMiss, wlFleetHit, wlSuite500}

// caseStudy builds the paper's 13-workload suite from the seed: SAR
// counters sampled on machine A plus measured speedup vectors A and B
// (10 runs each against the reference machine), exactly the inputs
// cmd/benchsim emits.
func caseStudy(seed uint64) (*service.Request, error) {
	ws, _, err := simbench.CalibratedSuite()
	if err != nil {
		return nil, fmt.Errorf("calibrating the case study: %w", err)
	}
	tab, err := simbench.SARTable(ws, simbench.MachineA(), simbench.SARSpec{Seed: seed})
	if err != nil {
		return nil, err
	}
	a, err := simbench.MeasuredSpeedups(ws, simbench.MachineA(), simbench.Reference(), 10, seed)
	if err != nil {
		return nil, err
	}
	b, err := simbench.MeasuredSpeedups(ws, simbench.MachineB(), simbench.Reference(), 10, seed)
	if err != nil {
		return nil, err
	}
	return &service.Request{
		Table:  service.TableJSON{Workloads: tab.Workloads, Features: tab.Features, Rows: tab.Rows},
		Scores: map[string][]float64{"A": a, "B": b},
	}, nil
}

// suite500 builds a 500-workload, 40-counter suite from
// simbench.SyntheticSpec (16 blobs) with two positive score vectors.
// Scores follow the blobs (each blob has its own speed level, with
// ±10% per-workload noise) so the clustering matters to the means.
func suite500(seed uint64) (*service.Request, error) {
	const n, dims, blobs = 500, 40, 16
	pts := simbench.SyntheticSpec{N: n, Dims: dims, Clusters: blobs, Seed: seed}.Points()
	r := rng.New(seed ^ 0x5eed5c0e5)
	level := make([][2]float64, blobs)
	for i := range level {
		level[i] = [2]float64{0.5 + 2*r.Float64(), 0.5 + 2*r.Float64()}
	}
	req := &service.Request{Scores: map[string][]float64{"A": make([]float64, n), "B": make([]float64, n)}}
	for j := 0; j < dims; j++ {
		req.Table.Features = append(req.Table.Features, fmt.Sprintf("c%02d", j))
	}
	for i, p := range pts {
		req.Table.Workloads = append(req.Table.Workloads, fmt.Sprintf("w%03d", i))
		req.Table.Rows = append(req.Table.Rows, []float64(p))
		lv := level[i%blobs]
		req.Scores["A"][i] = lv[0] * (0.9 + 0.2*r.Float64())
		req.Scores["B"][i] = lv[1] * (0.9 + 0.2*r.Float64())
	}
	return req, nil
}

// somSeeds hands out the per-request SOM seeds of one run. Seeds are
// unique within the run — warm-up and every repeated set-up included —
// because a repeated seed silently turns a miss into a cache hit. The
// top bit is always set, so no seed is 0 (the som package default).
type somSeeds struct {
	base uint64
	next atomic.Uint64
}

func newSOMSeeds(runSeed uint64) *somSeeds {
	return &somSeeds{base: splitmix(runSeed) | 1<<63}
}

// take returns the next unused seed. Safe for concurrent clients.
func (s *somSeeds) take() uint64 {
	return s.base ^ (s.next.Add(1) - 1)
}

// splitmix is the SplitMix64 finalizer: it spreads nearby run seeds
// over the whole 64-bit space.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// body encodes the suite with the given SOM seed: the exact request
// bytes the program receives.
func body(suite *service.Request, somSeed uint64) ([]byte, error) {
	req := *suite
	req.Config.Seed = somSeed
	return json.Marshal(&req)
}
