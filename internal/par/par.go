// Package par provides the small deterministic-parallelism toolkit
// the sharded kernels share (the tiled condensed distance build, the
// linkage's validation pass, SOM placement): contiguous range
// splitting across a bounded worker pool, and fixed-shard
// partitioning whose boundaries depend only on the problem size —
// never on the worker count — so results are bit-identical for any
// parallelism level.
//
// The package deliberately has no clever scheduling: every helper
// spawns at most `workers` goroutines, hands each a statically
// computed contiguous range, and waits. That keeps the parallel paths
// trivially race-free (disjoint writes) and keeps results a pure
// function of the inputs.
//
// # Containment and cancellation
//
// A panic inside a worker body never takes the process down from an
// unrecoverable goroutine: every body invocation runs guarded, and a
// recovered panic is re-raised on the *calling* goroutine as a
// *PanicError carrying the shard identity and the worker stack — or,
// from ForCtx and FixedShardsCtx, returned as an error. Those two
// additionally stop dispatching new chunks/shards once the context
// fires (in-flight bodies run to completion, so partial output must
// be discarded on error) and are bit-identical to an uncancelled run
// whenever the context never fires.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"hmeans/internal/obs"
)

// Resolve normalizes a requested parallelism level: values below 1
// mean "serial" (1). Callers that want "all cores" should pass
// Auto().
func Resolve(workers int) int {
	if workers < 1 {
		return 1
	}
	return workers
}

// Auto returns the worker count for "use the whole machine":
// runtime.NumCPU().
func Auto() int { return runtime.NumCPU() }

// chunk is a contiguous half-open index interval [Start, End).
type chunk struct {
	Start, End int
}

// split partitions [0, n) into at most `parts` contiguous chunks of
// near-equal length (the first n%parts chunks are one longer). It
// returns fewer chunks when n < parts; it never returns empty chunks.
func split(n, parts int) []chunk {
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([]chunk, 0, parts)
	base, rem := n/parts, n%parts
	start := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, chunk{Start: start, End: start + size})
		start += size
	}
	return out
}

// PanicError is a worker panic recovered by the pool, carrying the
// identity of the shard that raised it. For re-raises it on the
// calling goroutine (where defer/recover works); ForCtx and
// FixedShardsCtx return it as an ordinary error.
type PanicError struct {
	// Op names the pool ("par.For" or "par.FixedShards").
	Op string
	// Shard is the chunk index (For, ForCtx) or shard index
	// (FixedShardsCtx) whose body panicked.
	Shard int
	// Start and End bound the index range the shard owned.
	Start, End int
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack at recovery time.
	Stack []byte
}

// Error formats the panic with its shard identity.
func (e *PanicError) Error() string {
	return fmt.Sprintf("%s: worker panic on shard %d [%d,%d): %v", e.Op, e.Shard, e.Start, e.End, e.Value)
}

// Unwrap exposes the panic value when it was itself an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// guard runs body over r, converting a panic into a *PanicError.
func guard(op string, shard int, r chunk, body func(start, end int)) (pe *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			pe = &PanicError{Op: op, Shard: shard, Start: r.Start, End: r.End, Value: v, Stack: debug.Stack()}
		}
	}()
	body(r.Start, r.End)
	return nil
}

// guardShard is guard for shard-indexed bodies. It is a top-level
// function (not a closure over body) so the serial FixedShardsCtx
// path stays allocation-free: a long-lived caller handing in a reused
// func value runs whole shard sweeps with zero heap traffic.
func guardShard(op string, shard, start, end int, body func(shard, start, end int)) (pe *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			pe = &PanicError{Op: op, Shard: shard, Start: start, End: end, Value: v, Stack: debug.Stack()}
		}
	}()
	body(shard, start, end)
	return nil
}

// For runs body over [0, n) split into `workers` contiguous chunks,
// one goroutine per chunk, and waits for all of them. With workers <= 1
// (or n small) it runs inline on the calling goroutine. Each body
// invocation owns its range exclusively, so bodies may write to
// per-index slots of shared slices without synchronization. Results
// must not depend on chunk boundaries if worker-count-invariant output
// is required — use FixedShardsCtx for order-sensitive reductions.
//
// A body panic — even on a spawned worker — surfaces as a *PanicError
// panic on the calling goroutine after every other chunk has finished
// or been skipped, so callers can recover it.
func For(workers, n int, body func(start, end int)) {
	if err := forCtx(context.Background(), workers, n, body); err != nil {
		// A background context never fires, so the only possible
		// error is a contained worker panic: re-raise it where the
		// caller can recover.
		panic(err)
	}
}

// ForCtx is For with cooperative cancellation and panic containment:
// chunks not yet started when ctx fires are skipped and ctx's error is
// returned; a body panic is returned as a *PanicError (lowest shard
// index wins when several chunks fail). Cancellation granularity is
// one chunk — an in-flight body always runs to completion — and any
// output must be discarded when the error is non-nil. With a context
// that never fires the chunk structure, execution order and results
// are bit-identical to For.
func ForCtx(ctx context.Context, workers, n int, body func(start, end int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return forCtx(ctx, workers, n, body)
}

func forCtx(ctx context.Context, workers, n int, body func(start, end int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	workers = Resolve(workers)
	if workers == 1 || n <= 1 {
		if n > 0 {
			if pe := guard("par.For", 0, chunk{Start: 0, End: n}, body); pe != nil {
				return pe
			}
		}
		return nil
	}
	ranges := split(n, workers)
	if len(ranges) == 1 {
		if pe := guard("par.For", 0, ranges[0], body); pe != nil {
			return pe
		}
		return nil
	}
	// The observer gate is one atomic load per For call; when active,
	// each chunk is timed and the chunk-duration imbalance (max/mean)
	// is recorded so traces expose how evenly the split shared work.
	var durs []time.Duration
	o := obs.Default()
	if o.Active() {
		durs = make([]time.Duration, len(ranges))
	}
	panics := make([]*PanicError, len(ranges))
	done := ctx.Done()
	var stopped atomic.Bool
	runChunk := func(i int) {
		if stopped.Load() {
			return
		}
		select {
		case <-done:
			stopped.Store(true)
			return
		default:
		}
		if durs != nil {
			t0 := time.Now()
			panics[i] = guard("par.For", i, ranges[i], body)
			durs[i] = time.Since(t0)
		} else {
			panics[i] = guard("par.For", i, ranges[i], body)
		}
		if panics[i] != nil {
			stopped.Store(true) // fail fast: skip chunks not yet started
		}
	}
	var wg sync.WaitGroup
	wg.Add(len(ranges) - 1)
	for i := range ranges[1:] {
		go func(i int) {
			defer wg.Done()
			runChunk(i)
		}(i + 1)
	}
	runChunk(0)
	wg.Wait()
	if durs != nil {
		recordImbalance(o, "par.for", durs)
	}
	for _, pe := range panics {
		if pe != nil {
			return pe
		}
	}
	if stopped.Load() {
		return ctx.Err()
	}
	return nil
}

// imbalanceBounds are the shared histogram buckets for the
// max/mean shard-duration ratio: 1 is a perfectly balanced split,
// and with W workers a ratio near W means one chunk did all the
// work.
var imbalanceBounds = []float64{1.05, 1.1, 1.25, 1.5, 2, 3, 5, 10}

// recordImbalance folds one timed fan-out into the registry: a call
// counter, a chunk counter, and the max/mean duration ratio.
func recordImbalance(o *obs.Observer, prefix string, durs []time.Duration) {
	reg := o.Metrics()
	reg.Counter(prefix + ".calls").Add(1)
	reg.Counter(prefix + ".chunks").Add(int64(len(durs)))
	var sum, max time.Duration
	for _, d := range durs {
		sum += d
		if d > max {
			max = d
		}
	}
	if sum <= 0 {
		return
	}
	mean := float64(sum) / float64(len(durs))
	ratio := float64(max) / mean
	reg.Gauge(prefix + ".imbalance").Set(ratio)
	reg.Histogram(prefix+".imbalance_hist", imbalanceBounds...).Observe(ratio)
}

// FixedShardsCtx partitions [0, n) into shards of exactly `shardSize`
// indices (the last shard may be shorter) — boundaries depend only on
// n and shardSize, never on the worker count — and runs body once per
// shard across the pool. The shard index lets the body write into a
// per-shard accumulator; reducing those accumulators in shard order
// afterwards yields bit-identical floating-point results regardless
// of parallelism. It returns the number of shards.
//
// Once ctx fires no further shard starts and ctx's error is returned
// (partial output must be discarded); a body panic is returned as a
// *PanicError with the offending shard's identity. Cancellation
// granularity is one shard — much finer than ForCtx's one chunk per
// worker — which makes this the preferred fan-out for
// deadline-sensitive kernels.
func FixedShardsCtx(ctx context.Context, workers, n, shardSize int, body func(shard, start, end int)) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return 0, nil
	}
	if shardSize < 1 {
		shardSize = 1
	}
	shards := (n + shardSize - 1) / shardSize
	if err := ctx.Err(); err != nil {
		return shards, err
	}
	done := ctx.Done()
	workers = Resolve(workers)
	if workers == 1 || shards == 1 {
		// Inline loop without the run closure: the serial path is the
		// steady-state hot loop of single-worker kernels and must not
		// allocate per call.
		for s := 0; s < shards; s++ {
			select {
			case <-done:
				return shards, ctx.Err()
			default:
			}
			start := s * shardSize
			end := start + shardSize
			if end > n {
				end = n
			}
			if pe := guardShard("par.FixedShards", s, start, end, body); pe != nil {
				return shards, pe
			}
		}
		return shards, nil
	}
	if workers > shards {
		workers = shards
	}
	run := func(shard int) *PanicError {
		start := shard * shardSize
		end := start + shardSize
		if end > n {
			end = n
		}
		return guardShard("par.FixedShards", shard, start, end, body)
	}
	// The observer gate costs one atomic load per FixedShardsCtx call;
	// when active, per-shard wall times feed the shard-imbalance
	// metrics. Shard assignment is the same static interleave either
	// way — worker w owns shards w, w+W, w+2W, … — and shard
	// boundaries are fixed, so which worker computes a shard cannot
	// change its contents.
	var durs []time.Duration
	o := obs.Default()
	if o.Active() {
		durs = make([]time.Duration, shards)
	}
	panics := make([]*PanicError, shards)
	var stopped atomic.Bool
	runLoop := func(w int) {
		for s := w; s < shards; s += workers {
			if stopped.Load() {
				return
			}
			select {
			case <-done:
				stopped.Store(true)
				return
			default:
			}
			if durs != nil {
				t0 := time.Now()
				panics[s] = run(s)
				durs[s] = time.Since(t0)
			} else {
				panics[s] = run(s)
			}
			if panics[s] != nil {
				stopped.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			runLoop(w)
		}(w)
	}
	runLoop(0)
	wg.Wait()
	if durs != nil {
		recordImbalance(o, "par.shards", durs)
	}
	for _, pe := range panics {
		if pe != nil {
			return shards, pe
		}
	}
	if stopped.Load() {
		return shards, ctx.Err()
	}
	return shards, nil
}
