package service

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Group coalesces duplicate in-flight computations: the first caller
// for a key becomes the leader and runs fn; every caller that arrives
// with the same key while the leader is running waits for the
// leader's result instead of recomputing it. Both hops coalesce
// through one: on a replica it is what makes a burst of identical
// requests train the SOM exactly once, and the gateway sends one
// dispatch per key however many clients ask.
//
// Unlike x/sync/singleflight, waiting is context-aware: a follower
// whose request deadline fires stops waiting (and gets its context
// error) while the leader's computation continues for the others.
type Group[V any] struct {
	mu sync.Mutex
	m  map[[32]byte]*call[V]
	// followers counts callers currently waiting on another caller's
	// flight — observability for tests.
	followers atomic.Int64
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
	// left marks a flight that ended only because its leader's
	// request context ended.
	left bool
}

// NewGroup returns an empty Group.
func NewGroup[V any]() *Group[V] {
	return &Group[V]{m: make(map[[32]byte]*call[V])}
}

// Do runs fn for key, coalescing concurrent duplicates. It returns
// fn's result, plus leader=false when the result came from another
// caller's computation. fn runs exactly once per flight regardless of
// how many callers join it. fn reports left=true when it gave up only
// because ctx, the leader's request context, ended: the leader gets
// that error, and each follower whose own context is still live runs
// the flight again (leading a new one, or joining the one another
// follower started) instead of inheriting an error that was not its
// own. A panic in fn reaches the leader and every follower as a
// *PanicError: the flight still closes, so no follower waits on it
// forever.
func (g *Group[V]) Do(ctx context.Context, key [32]byte, fn func() (val V, left bool, err error)) (val V, leader bool, err error) {
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
			return val, false, ctx.Err()
		}
		g.followers.Add(-1)
		if !c.left || ctx.Err() != nil {
			return c.val, false, c.err
		}
	}
	c := &call[V]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	func() {
		defer func() {
			if v := recover(); v != nil {
				c.err = &PanicError{Value: v, Stack: debug.Stack()}
			}
		}()
		c.val, c.left, c.err = fn()
	}()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, true, c.err
}

// Len reports the number of in-flight computations.
func (g *Group[V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}

// Waiting reports the number of callers waiting on another caller's
// flight.
func (g *Group[V]) Waiting() int64 { return g.followers.Load() }
