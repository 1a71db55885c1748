package som

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"hmeans/internal/obs"
	"hmeans/internal/vecmath"
)

// startCase is one input of the start tests: a sample set, its grid
// and the SOM seeds to train it at.
type startCase struct {
	name       string
	samples    []vecmath.Vector
	rows, cols int
	seeds      []uint64
}

// startCases covers every kind of start: the case study's counters
// and bits (span path), suite-500 (full dimension), the two-blob input,
// whose variances after the first nearly tie (span path), and two
// samples, which cannot support a PCA plane (random initialization).
// Suite-500 trains for seconds under the race detector, which cannot
// check one goroutine's arithmetic anyway, so it is left out there.
func startCases(tb testing.TB) []startCase {
	tb.Helper()
	counters, bits := caseStudyCounters(tb, 1), caseStudyBits(tb)
	rows, cols := GridFor(len(counters))
	cases := []startCase{
		{"counters", counters, rows, cols, []uint64{1, 2, 3, 4, 5}},
		{"bits", bits, rows, cols, []uint64{1, 2, 3, 4, 5}},
		{"two-blob", benchSamples(14, 160), 5, 4, []uint64{99, 100}},
		{"random-init", []vecmath.Vector{{1, 0, 2, 0, 1}, {0, 3, 1, 1, 0}}, 3, 3, []uint64{1, 2, 3}},
	}
	if !raceEnabled {
		suite := suite500Counters(tb, 1)
		srows, scols := GridFor(len(suite))
		cases = append(cases, startCase{"suite-500", suite, srows, scols, []uint64{1, 2}})
	}
	return cases
}

// TestStartReuseBitIdentical: training from a start and a kernel
// schedule the table already holds, at a new seed, trains the weights
// TrainCtx trains without a table, bit for bit. Each input trains
// twice at every seed through the table: its first training builds
// the start, and the first on its grid and step count the schedule,
// and every later one reuses them.
func TestStartReuseBitIdentical(t *testing.T) {
	cases := startCases(t)
	if st := testStart(t, Config{Rows: 3, Cols: 3}, cases[3].samples); st.init != nil {
		t.Fatal("PCA initialization succeeded on two samples")
	}
	o := obs.New()
	table := NewStarts(len(cases))
	var trainings int64
	plans := map[kernelPlan]bool{}
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			cfg := Config{Rows: tc.rows, Cols: tc.cols, Seed: seed}
			want, err := TrainCtx(context.Background(), cfg, tc.samples)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Starts, cfg.Obs = table, o
			for run := 1; run <= 2; run++ {
				got, err := TrainCtx(context.Background(), cfg, tc.samples)
				if err != nil {
					t.Fatal(err)
				}
				if !equalMaps(t, got, want) {
					t.Fatalf("%s seed %d, training %d through the table: weights differ from TrainCtx without a table", tc.name, seed, run)
				}
				trainings++
			}
			c := cfg.withDefaults()
			plans[newKernelPlan(c.Rows, c.Cols, c.Steps)] = true
		}
	}
	metrics := o.Metrics()
	built := metrics.Counter("som.start.built").Value()
	reused := metrics.Counter("som.start.reused").Value()
	if built != int64(len(cases)) || reused != trainings-built {
		t.Fatalf("som.start.built %d, som.start.reused %d; want %d and %d", built, reused, len(cases), trainings-int64(len(cases)))
	}
	built = metrics.Counter("som.schedule.built").Value()
	reused = metrics.Counter("som.schedule.reused").Value()
	if built != int64(len(plans)) || reused != trainings-built {
		t.Fatalf("som.schedule.built %d, som.schedule.reused %d; want %d and %d", built, reused, len(plans), trainings-int64(len(plans)))
	}
}

// startBits is a deep copy of every value a start holds.
func startBits(s *Start) [][]float64 {
	out := [][]float64{slices.Clone(s.init), slices.Clone(s.mean)}
	for _, q := range s.basis {
		out = append(out, slices.Clone(q))
	}
	for _, c := range s.coords {
		out = append(out, slices.Clone(c))
	}
	return out
}

// TestStartUnchangedAndUnshared: training never writes a start, and a
// trained map shares no memory with it, so overwriting every weight of
// the map leaves the start as it was.
func TestStartUnchangedAndUnshared(t *testing.T) {
	for _, tc := range startCases(t) {
		st, err := newStart(context.Background(), tc.rows, tc.cols, tc.samples)
		if err != nil {
			t.Fatal(err)
		}
		before := startBits(st)
		for _, seed := range tc.seeds {
			cfg := Config{Rows: tc.rows, Cols: tc.cols, Seed: seed}
			m, err := st.train(context.Background(), cfg.withDefaults(), tc.samples, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j := range m.flat {
				m.flat[j] = math.NaN()
			}
			for _, loc := range m.locations {
				loc[0], loc[1] = math.NaN(), math.NaN()
			}
		}
		after := startBits(st)
		for i := range before {
			for j := range before[i] {
				if math.Float64bits(before[i][j]) != math.Float64bits(after[i][j]) {
					t.Fatalf("%s: start value [%d][%d] changed from %v to %v", tc.name, i, j, before[i][j], after[i][j])
				}
			}
		}
	}
}

// TestStartKeyMisses: a one-ulp change to one sample, another grid
// and permuted rows each key another start; the same bits in other
// slices key the same one.
func TestStartKeyMisses(t *testing.T) {
	samples := caseStudyCounters(t, 1)
	rows, cols := GridFor(len(samples))
	clone := func() []vecmath.Vector {
		out := make([]vecmath.Vector, len(samples))
		for i, s := range samples {
			out[i] = s.Clone()
		}
		return out
	}
	ulp := clone()
	ulp[7][100] = math.Nextafter(ulp[7][100], math.Inf(1))
	permuted := clone()
	permuted[0], permuted[1] = permuted[1], permuted[0]
	base := startKey(rows, cols, samples)
	if got := startKey(rows, cols, clone()); got != base {
		t.Fatal("a copy of the samples keyed another start")
	}
	for name, key := range map[string][32]byte{
		"one ulp":      startKey(rows, cols, ulp),
		"another grid": startKey(cols, rows, samples),
		"permuted":     startKey(rows, cols, permuted),
	} {
		if key == base {
			t.Errorf("%s: keyed the same start", name)
		}
	}

	o := obs.New()
	table := NewStarts(8)
	train := func(r, c int, s []vecmath.Vector) {
		t.Helper()
		if _, err := TrainCtx(context.Background(), Config{Rows: r, Cols: c, Steps: 200, Seed: 1, Starts: table, Obs: o}, s); err != nil {
			t.Fatal(err)
		}
	}
	train(rows, cols, samples)
	train(rows, cols, clone())
	train(rows, cols, ulp)
	train(cols, rows, samples)
	train(rows, cols, permuted)
	built := o.Metrics().Counter("som.start.built").Value()
	reused := o.Metrics().Counter("som.start.reused").Value()
	if built != 4 || reused != 1 {
		t.Fatalf("som.start.built %d, som.start.reused %d; want 4 and 1", built, reused)
	}
}

// TestStartSpan: with telemetry on, each training records a som.start
// span under its som.train span, marked reused on a table hit.
func TestStartSpan(t *testing.T) {
	samples := obsSamples()
	col := obs.NewCollector()
	cfg := Config{Rows: 3, Cols: 3, Steps: 100, Starts: NewStarts(1), Obs: obs.New(col)}
	for seed := uint64(1); seed <= 2; seed++ {
		cfg.Seed = seed
		if _, err := TrainCtx(context.Background(), cfg, samples); err != nil {
			t.Fatal(err)
		}
	}
	train := map[uint64]bool{}
	var reused []bool
	tr := col.Trace()
	for _, s := range tr.Spans {
		if s.Name == "som.train" {
			train[s.ID] = true
		}
	}
	for _, s := range tr.Spans {
		if s.Name != "som.start" {
			continue
		}
		if !train[s.Parent] {
			t.Fatalf("som.start span %d has parent %d, not a som.train span", s.ID, s.Parent)
		}
		for _, a := range s.Attrs {
			if a.Key == "reused" {
				reused = append(reused, a.Val.(bool))
			}
		}
	}
	if !slices.Equal(reused, []bool{false, true}) {
		t.Fatalf("som.start reused attributes %v, want [false true]", reused)
	}
}

// TestStartSize: an entry of the table is small for both benchmark
// suites, within the bound DESIGN.md §17 states.
func TestStartSize(t *testing.T) {
	counters := caseStudyCounters(t, 1)
	rows, cols := GridFor(len(counters))
	suite := suite500Counters(t, 1)
	srows, scols := GridFor(len(suite))
	for _, tc := range []struct {
		name       string
		samples    []vecmath.Vector
		rows, cols int
	}{{"case study", counters, rows, cols}, {"suite-500", suite, srows, scols}} {
		st, err := newStart(context.Background(), tc.rows, tc.cols, tc.samples)
		if err != nil {
			t.Fatal(err)
		}
		floats := 0
		for _, v := range startBits(st) {
			floats += len(v)
		}
		n, d, units, r := len(tc.samples), st.dim, tc.rows*tc.cols, st.trainDim()
		bound := units * d
		if st.basis != nil {
			bound = (r+1)*d + (units+n)*r
		}
		if floats > bound || 8*floats >= 60<<10 {
			t.Errorf("%s: start holds %d floats (%d bytes); want at most %d and under 60 KB", tc.name, floats, 8*floats, bound)
		}
	}
}

// TestStartsConcurrentTraining: concurrent trainings at different
// seeds share one table's start and kernel schedule, which the first
// round may build several times over, and each trains the weights
// TrainCtx trains without a table. Run it under the race detector.
func TestStartsConcurrentTraining(t *testing.T) {
	samples := caseStudyCounters(t, 2)
	rows, cols := GridFor(len(samples))
	const workers = 6
	want := make([]*Map, workers)
	for i := range want {
		m, err := TrainCtx(context.Background(), Config{Rows: rows, Cols: cols, Steps: 2000, Seed: uint64(i + 1)}, samples)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	table := NewStarts(1)
	for round := 0; round < 2; round++ {
		got := make([]*Map, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = TrainCtx(context.Background(), Config{Rows: rows, Cols: cols, Steps: 2000, Seed: uint64(i + 1), Starts: table}, samples)
			}()
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !equalMaps(t, got[i], want[i]) {
				t.Fatalf("round %d seed %d: concurrent training from the shared start differs", round, i+1)
			}
		}
		if n := table.schedules.Len(); n != 1 {
			t.Fatalf("round %d: the table holds %d kernel schedules, want 1", round, n)
		}
	}
}

// endingCtx is a context whose Err reports context.Canceled from its
// (live+1)-th call on. It counts the calls.
type endingCtx struct {
	context.Context
	live, polls int
}

func (c *endingCtx) Err() error {
	c.polls++
	if c.polls > c.live {
		return context.Canceled
	}
	return nil
}

// TestStartBuildStopsOnEndedContext: building a start polls its
// context once per sample in the Gram–Schmidt build and in the
// coordinates, once per row of the coordinates' covariance and of each
// sweep of Jacobi rotations, and once after the PCA. On the two-blob
// input, a context that ended before the call, and one that ends at
// any of those polls, each stop the build: TrainCtx returns the
// context's error and the table stays empty. A live context then
// builds the start and stores it.
func TestStartBuildStopsOnEndedContext(t *testing.T) {
	samples := benchSamples(14, 160)
	cfg := Config{Rows: 5, Cols: 4, Seed: 99}
	full := &endingCtx{Context: context.Background(), live: math.MaxInt}
	if _, err := newStart(full, cfg.Rows, cfg.Cols, samples); err != nil {
		t.Fatal(err)
	}
	// 14 samples, twice, and 13 rows of covariance come before the
	// Jacobi's first poll.
	if n := len(samples); full.polls <= 3*n-1 {
		t.Fatalf("the build polled its context %d times, want more than %d", full.polls, 3*n-1)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ctxs := []context.Context{cancelled}
	for live := 0; live < full.polls; live++ {
		ctxs = append(ctxs, &endingCtx{Context: context.Background(), live: live})
	}
	cfg.Starts = NewStarts(4)
	for i, ctx := range ctxs {
		if _, err := TrainCtx(ctx, cfg, samples); !errors.Is(err, context.Canceled) {
			t.Fatalf("context %d: TrainCtx returned %v, want context.Canceled", i, err)
		}
		if n := cfg.Starts.table.Len(); n != 0 {
			t.Fatalf("context %d: the table holds %d starts after a cancelled build, want 0", i, n)
		}
	}
	if _, err := TrainCtx(context.Background(), cfg, samples); err != nil {
		t.Fatal(err)
	}
	if n := cfg.Starts.table.Len(); n != 1 {
		t.Fatalf("the table holds %d starts after a build, want 1", n)
	}
}
