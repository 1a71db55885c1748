package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestForContainsWorkerPanic is the regression test for the historical
// crash: a panic on a spawned worker goroutine was unrecoverable and
// killed the process. It must now surface as a recoverable
// *PanicError panic on the calling goroutine, carrying the shard.
func TestForContainsWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatalf("workers=%d: expected a panic", workers)
				}
				pe, ok := v.(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: panic value %T, want *PanicError", workers, v)
				}
				if pe.Value != "boom" {
					t.Errorf("workers=%d: panic value %v, want boom", workers, pe.Value)
				}
				if pe.Start > 40 || pe.End <= 40 {
					t.Errorf("workers=%d: shard range [%d,%d) does not contain the panicking index", workers, pe.Start, pe.End)
				}
				if len(pe.Stack) == 0 {
					t.Errorf("workers=%d: missing worker stack", workers)
				}
			}()
			For(workers, 64, func(start, end int) {
				for i := start; i < end; i++ {
					if i == 40 {
						panic("boom")
					}
				}
			})
		}()
	}
}

// TestFixedShardsContainsWorkerPanic mirrors the For regression test
// for the fixed-shard pool, checking the reported shard index.
func TestFixedShardsContainsWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		_, err := FixedShardsCtx(context.Background(), workers, 100, 10, func(shard, start, end int) {
			if shard == 2 {
				panic("shard down")
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %v, want *PanicError", workers, err)
		}
		if pe.Shard != 2 {
			t.Errorf("workers=%d: reported shard %d, want 2", workers, pe.Shard)
		}
	}
}

func TestForCtxReturnsPanicError(t *testing.T) {
	boom := errors.New("worker exploded")
	for _, workers := range []int{1, 4} {
		err := ForCtx(context.Background(), workers, 32, func(start, end int) {
			panic(boom)
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %v, want *PanicError", workers, err)
		}
		// An error panic value must unwrap so callers can errors.Is it.
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: PanicError does not unwrap to the panic value", workers)
		}
	}
}

func TestForCtxPanicPicksLowestShard(t *testing.T) {
	err := ForCtx(context.Background(), 4, 64, func(start, end int) {
		panic("every chunk")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v, want *PanicError", err)
	}
	if pe.Shard != 0 {
		t.Errorf("reported shard %d, want the lowest recorded (0)", pe.Shard)
	}
}

func TestForCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := ForCtx(ctx, 4, 100, func(start, end int) { ran = true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if ran {
		t.Error("body ran after cancellation")
	}
}

func TestFixedShardsCtxStopsDispatchingAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	_, err := FixedShardsCtx(ctx, 2, 1000, 10, func(shard, start, end int) {
		if ran.Add(1) == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	// 100 shards exist; after the third body cancels, only the
	// (bounded) in-flight shards may still run.
	if got := ran.Load(); got > 10 {
		t.Errorf("%d shards ran after cancellation, want early stop", got)
	}
}

func TestFixedShardsCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := FixedShardsCtx(ctx, 4, 400, 1, func(shard, s, e int) {
		time.Sleep(2 * time.Millisecond)
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("took %v after a 5ms deadline: shards kept dispatching", elapsed)
	}
}

// TestCtxVariantsBitIdenticalWithBackground proves the ctx variants
// behave like uncancellable fan-outs when the context never fires:
// ForCtx covers exactly what For does, and FixedShardsCtx keeps its
// size-only shard boundaries.
func TestCtxVariantsBitIdenticalWithBackground(t *testing.T) {
	const n = 103
	for _, workers := range []int{1, 2, 8} {
		plain := make([]int32, n)
		For(workers, n, func(start, end int) {
			for i := start; i < end; i++ {
				atomic.AddInt32(&plain[i], 1)
			}
		})
		viaCtx := make([]int32, n)
		if err := ForCtx(context.Background(), workers, n, func(start, end int) {
			for i := start; i < end; i++ {
				atomic.AddInt32(&viaCtx[i], 1)
			}
		}); err != nil {
			t.Fatalf("ForCtx: %v", err)
		}
		for i := range plain {
			if plain[i] != 1 || viaCtx[i] != 1 {
				t.Fatalf("workers=%d: index %d visited plain=%d ctx=%d", workers, i, plain[i], viaCtx[i])
			}
		}

		bounds := map[int][2]int{}
		var mu sync2 // tiny mutex via channel to keep imports minimal
		mu.init()
		shards, err := FixedShardsCtx(context.Background(), workers, n, 16, func(shard, start, end int) {
			mu.lock()
			bounds[shard] = [2]int{start, end}
			mu.unlock()
		})
		if err != nil {
			t.Fatalf("FixedShardsCtx: %v", err)
		}
		if want := (n + 15) / 16; shards != want {
			t.Fatalf("workers=%d: %d shards, want %d", workers, shards, want)
		}
		for s := 0; s < shards; s++ {
			start := s * 16
			end := start + 16
			if end > n {
				end = n
			}
			if bounds[s] != [2]int{start, end} {
				t.Fatalf("workers=%d: shard %d bounds %v, want [%d %d]", workers, s, bounds[s], start, end)
			}
		}
	}
}

type sync2 struct{ ch chan struct{} }

func (m *sync2) init()   { m.ch = make(chan struct{}, 1); m.ch <- struct{}{} }
func (m *sync2) lock()   { <-m.ch }
func (m *sync2) unlock() { m.ch <- struct{}{} }
