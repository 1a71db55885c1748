package par

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {64, 64},
	} {
		if got := Resolve(tc.in); got != tc.want {
			t.Errorf("Resolve(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	if Auto() < 1 {
		t.Errorf("Auto() = %d, want >= 1", Auto())
	}
}

func TestSplitCoversExactly(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for parts := 1; parts <= 10; parts++ {
			ranges := split(n, parts)
			next := 0
			for _, r := range ranges {
				if r.Start != next {
					t.Fatalf("split(%d,%d): range starts at %d, want %d", n, parts, r.Start, next)
				}
				if r.End <= r.Start {
					t.Fatalf("split(%d,%d): empty range %+v", n, parts, r)
				}
				next = r.End
			}
			if next != n {
				t.Fatalf("split(%d,%d): covers [0,%d), want [0,%d)", n, parts, next, n)
			}
			if n > 0 && len(ranges) > parts {
				t.Fatalf("split(%d,%d): %d ranges", n, parts, len(ranges))
			}
		}
	}
}

func TestSplitBalance(t *testing.T) {
	for _, r := range split(10, 3) {
		if size := r.End - r.Start; size < 3 || size > 4 {
			t.Errorf("split(10,3): unbalanced range %+v", r)
		}
	}
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			visits := make([]int32, n)
			For(workers, n, func(start, end int) {
				for i := start; i < end; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("For(%d,%d): index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

func TestFixedShardsBoundariesIndependentOfWorkers(t *testing.T) {
	const n, shardSize = 103, 16
	record := func(workers int) map[int][2]int {
		got := map[int][2]int{}
		var mu chan struct{} = make(chan struct{}, 1)
		mu <- struct{}{}
		shards, err := FixedShardsCtx(context.Background(), workers, n, shardSize, func(shard, start, end int) {
			<-mu
			got[shard] = [2]int{start, end}
			mu <- struct{}{}
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := (n + shardSize - 1) / shardSize; shards != want {
			t.Fatalf("FixedShardsCtx returned %d shards, want %d", shards, want)
		}
		return got
	}
	serial := record(1)
	for _, workers := range []int{2, 3, 8} {
		parallel := record(workers)
		if len(parallel) != len(serial) {
			t.Fatalf("workers=%d: %d shards, want %d", workers, len(parallel), len(serial))
		}
		for shard, bounds := range serial {
			if parallel[shard] != bounds {
				t.Fatalf("workers=%d: shard %d bounds %v, want %v", workers, shard, parallel[shard], bounds)
			}
		}
	}
}

func TestFixedShardsCoverage(t *testing.T) {
	const n, shardSize = 50, 7
	visits := make([]int32, n)
	if _, err := FixedShardsCtx(context.Background(), 4, n, shardSize, func(_, start, end int) {
		for i := start; i < end; i++ {
			atomic.AddInt32(&visits[i], 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}
