package som

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"hmeans/internal/obs"
	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

// TestScheduleBlocksMatchShared: the blocks a training without a
// shared schedule fills hold the reach and the entries of the shared
// build, bit for bit, at every step: on the case study's 5 × 4 grid
// and suite-500's 12 × 10 at the pipeline's step counts, and at
// 10,001 steps, whose last block is one step long.
func TestScheduleBlocksMatchShared(t *testing.T) {
	for _, g := range []struct{ rows, cols, steps int }{{5, 4, 10000}, {12, 10, 60000}, {5, 4, 10001}} {
		p := newKernelPlan(g.rows, g.cols, g.steps)
		shared, err := buildSchedule(context.Background(), p)
		if err != nil || shared == nil {
			t.Fatalf("%d×%d, %d steps: schedule %v, error %v", g.rows, g.cols, g.steps, shared, err)
		}
		if len(shared.reach) != g.steps || shared.off[g.steps] != len(shared.kern) {
			t.Fatalf("%d×%d, %d steps: %d reaches and %d entries, want %d and %d", g.rows, g.cols, g.steps, len(shared.reach), shared.off[g.steps], g.steps, len(shared.kern))
		}
		own := newSchedule(p, cancelCheckSteps)
		entries := 0
		for n0 := 0; n0 < g.steps; n0 += cancelCheckSteps {
			n1 := min(n0+cancelCheckSteps, g.steps)
			entries += own.block(p, n0, n1)
			for n := n0; n < n1; n++ {
				got, want := own.kern[own.off[n-n0]:own.off[n-n0+1]], shared.kern[shared.off[n]:shared.off[n+1]]
				if own.reach[n-n0] != shared.reach[n] || len(got) != len(want) {
					t.Fatalf("%d×%d, %d steps, step %d: block reach %d with %d entries, shared reach %d with %d", g.rows, g.cols, g.steps, n, own.reach[n-n0], len(got), shared.reach[n], len(want))
				}
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("%d×%d, %d steps, step %d, d² %d: block entry %v, shared %v", g.rows, g.cols, g.steps, n, own.dist[k], got[k], want[k])
					}
				}
			}
		}
		if entries != len(shared.kern) {
			t.Fatalf("%d×%d, %d steps: blocks computed %d entries, the shared build %d", g.rows, g.cols, g.steps, entries, len(shared.kern))
		}
	}
}

// TestScheduleKeyMisses: another grid or another step count keys
// another schedule, and one table that trains one grid at two step
// counts trains the oracle's weights at both, from each count's own
// schedule.
func TestScheduleKeyMisses(t *testing.T) {
	samples := caseStudyCounters(t, 1)
	rows, cols := GridFor(len(samples))
	table := NewStarts(4)
	for _, tc := range []struct{ rows, cols, steps int }{
		{rows, cols, 10000}, {rows, cols, 10000}, {rows, cols, 3000}, {cols, rows, 3000}, {rows, cols, 3000},
	} {
		cfg := Config{Rows: tc.rows, Cols: tc.cols, Steps: tc.steps, Seed: 1, Starts: table}
		init, coords := spanProjection(t, pcaInitMap(t, cfg, samples), samples)
		if !stepLoopMatchesOracle(t, cfg, init, coords) {
			t.Fatalf("%d×%d grid, %d steps: weights from the table's schedule differ from the oracle's", tc.rows, tc.cols, tc.steps)
		}
		if _, ok := table.schedules.Get(newKernelPlan(tc.rows, tc.cols, tc.steps).key()); !ok {
			t.Fatalf("%d×%d grid, %d steps: no schedule in the table after training", tc.rows, tc.cols, tc.steps)
		}
	}
	if n := table.schedules.Len(); n != 3 {
		t.Fatalf("the table holds %d schedules for three grid and step pairs, want 3", n)
	}
}

// TestScheduleBuildStopsOnEndedContext: a context that ends during a
// shared build stops it at the next block: the build returns the
// context's error and the table holds no schedule. A live context
// then builds the schedule and stores it.
func TestScheduleBuildStopsOnEndedContext(t *testing.T) {
	table := NewStarts(1)
	p := newKernelPlan(5, 4, 10000)
	ctx := &endingCtx{Context: context.Background(), live: 3}
	if s, err := table.schedule(ctx, p, nil); !errors.Is(err, context.Canceled) || s != nil {
		t.Fatalf("a build whose context ended returned %v and error %v, want no schedule and context.Canceled", s, err)
	}
	if ctx.polls != 4 {
		t.Fatalf("the build polled its context %d times, want 4: three live blocks and the ended poll", ctx.polls)
	}
	if n := table.schedules.Len(); n != 0 {
		t.Fatalf("the table holds %d schedules after a cancelled build, want 0", n)
	}
	if s, err := table.schedule(context.Background(), p, nil); err != nil || s == nil {
		t.Fatalf("a live build returned %v and error %v", s, err)
	}
	if n := table.schedules.Len(); n != 1 {
		t.Fatalf("the table holds %d schedules after a build, want 1", n)
	}
}

// TestSchedulesBounded: the schedules one table holds never take more
// than scheduleBytes. Three suite-500-sized schedules (12 × 10 grid,
// about 17 MB each) do not fit together, so the third evicts the
// first. A 40 × 40 grid trained for 25,000 steps, whose schedule alone
// takes more, is never stored: its build lays out its steps only up to
// the first that passes the bound, and its training fills its own
// blocks, with the oracle's weights.
func TestSchedulesBounded(t *testing.T) {
	r := rng.New(5)
	samples := make([]vecmath.Vector, 24)
	for i := range samples {
		samples[i] = vecmath.Vector{r.NormFloat64(), r.NormFloat64()}
	}
	o := obs.New()
	table := NewStarts(1)
	metrics := o.Metrics()
	for i, steps := range []int{60000, 60001, 60002} {
		cfg := Config{Rows: 12, Cols: 10, Steps: steps, Seed: 1, Starts: table, Obs: o}
		if _, err := TrainCtx(context.Background(), cfg, samples); err != nil {
			t.Fatal(err)
		}
		held, size := table.schedules.Len(), table.schedules.Size()
		if size > scheduleBytes || held != min(i+1, 2) {
			t.Fatalf("after %d steps: %d schedules of %d bytes; want %d within %d bytes", steps, held, size, min(i+1, 2), scheduleBytes)
		}
		if gauge := metrics.Gauge("som.schedule.bytes").Value(); gauge != float64(size) {
			t.Fatalf("som.schedule.bytes %v, want the %d bytes held", gauge, size)
		}
	}

	// The oversized grid trains for seconds under the race detector,
	// which cannot check one goroutine's arithmetic anyway.
	if raceEnabled {
		return
	}
	big := newKernelPlan(40, 40, 25000)
	s := newSchedule(big, big.steps)
	entries := s.layout(big, 0, big.steps, math.MaxInt)
	if s.bytes()+8*entries <= scheduleBytes {
		t.Fatalf("the 40×40 schedule takes %d bytes, not more than %d", s.bytes()+8*entries, scheduleBytes)
	}
	part := newSchedule(big, big.steps)
	limit := scheduleBytes/8 - len(part.dist) - len(part.slot) - (2*big.steps + 1)
	stop := part.layout(big, 0, big.steps, limit)
	laid := len(part.reach)
	if stop <= limit || laid == big.steps || part.off[laid-1] > limit || !slices.Equal(part.off, s.off[:laid+1]) {
		t.Fatalf("the refused layout stopped after %d of %d steps at %d entries, not at the first step past %d", laid, big.steps, stop, limit)
	}
	cfg := Config{Rows: 40, Cols: 40, Steps: big.steps, Seed: 1, Starts: table, Obs: o}
	held := table.schedules.Entries()
	exps := metrics.Counter("som.kernel_exps").Value()
	got, err := TrainCtx(context.Background(), cfg, samples)
	if err != nil {
		t.Fatal(err)
	}
	want := pcaInitMap(t, cfg, samples)
	want.trainOracle(cfg.withDefaults(), samples, rng.New(cfg.Seed))
	if !equalMaps(t, got, want) {
		t.Fatal("40×40 grid: weights from the per-run blocks differ from the oracle's")
	}
	if built := metrics.Counter("som.schedule.built").Value(); built != 3 {
		t.Fatalf("som.schedule.built %d after an oversized grid, want 3", built)
	}
	if after := table.schedules.Entries(); len(after) != len(held) || after[0].Val != held[0].Val || after[1].Val != held[1].Val {
		t.Fatal("training an oversized grid changed the table's schedules")
	}
	if got := metrics.Counter("som.kernel_exps").Value() - exps; got != int64(entries) {
		t.Fatalf("the oversized training made %d kernel exps, want its blocks' %d", got, entries)
	}
}
