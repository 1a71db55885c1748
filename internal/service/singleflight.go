package service

import (
	"context"
	"sync"
	"sync/atomic"
)

// group coalesces duplicate in-flight computations: the first caller
// for a key becomes the leader and runs fn; every caller that arrives
// with the same key while the leader is running waits for the
// leader's result instead of recomputing it. This is what makes a
// burst of identical requests train the SOM exactly once.
//
// Unlike x/sync/singleflight, waiting is context-aware: a follower
// whose request deadline fires stops waiting (and gets its context
// error) while the leader's computation continues for the others.
type group struct {
	mu sync.Mutex
	m  map[cacheKey]*call
	// followers counts callers currently waiting on another caller's
	// flight — observability for tests and the /metrics gauge.
	followers atomic.Int64
}

type call struct {
	done chan struct{}
	val  []byte
	err  error
	// left marks a flight that ended only because its leader's
	// request context ended.
	left bool
}

func newGroup() *group {
	return &group{m: make(map[cacheKey]*call)}
}

// do runs fn for key, coalescing concurrent duplicates. It returns
// fn's result, plus leader=false when the result came from another
// caller's computation. fn runs exactly once per flight regardless of
// how many callers join it. fn reports left=true when it gave up only
// because ctx, the leader's request context, ended: the leader gets
// that error, and each follower whose own context is still live runs
// the flight again (leading a new one, or joining the one another
// follower started) instead of inheriting an error that was not its
// own.
func (g *group) do(ctx context.Context, key cacheKey, fn func() (val []byte, left bool, err error)) (val []byte, leader bool, err error) {
	for {
		g.mu.Lock()
		c, ok := g.m[key]
		if !ok {
			break
		}
		g.mu.Unlock()
		g.followers.Add(1)
		select {
		case <-c.done:
		case <-ctx.Done():
			g.followers.Add(-1)
			return nil, false, ctx.Err()
		}
		g.followers.Add(-1)
		if !c.left || ctx.Err() != nil {
			return c.val, false, c.err
		}
	}
	c := &call{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.left, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, true, c.err
}

// flights reports the number of in-flight computations.
func (g *group) flights() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}

// waiting reports the number of callers waiting on another caller's
// flight.
func (g *group) waiting() int64 { return g.followers.Load() }
