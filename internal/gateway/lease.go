package gateway

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Lease roles reported per request (the X-Hmeans-Route header, the
// gateway access log, and the lease metrics).
const (
	// RoleLeader marks the request that held the lease and dispatched
	// the computation.
	RoleLeader = "leader"
	// RoleFollower marks a request that blocked on another request's
	// lease and shares its result.
	RoleFollower = "follower"
	// RoleTakeover marks a follower that outlived a lease's TTL,
	// usurped it and dispatched the computation itself.
	RoleTakeover = "takeover"
)

// leaseResult is what a lease delivers to everyone waiting on it.
type leaseResult struct {
	raw     []byte
	status  string // the replica's cache status (miss/hit/coalesced)
	replica string // which replica served it
	err     error
}

// lease is one in-flight computation claim on a content hash. The
// leader that created it dispatches the request; followers block on
// done. expires bounds how long followers will wait: a leader that
// dies mid-compute (its replica hung, its client vanished and nobody
// cancelled cleanly) must not strand its followers forever, so past
// expires a follower may usurp the lease and dispatch on its own.
type lease struct {
	done    chan struct{}
	expires time.Time
	res     leaseResult
	// left marks a lease whose dispatch failed after its leader's
	// request context ended.
	left bool
}

// leaseTable implements cross-replica singleflight: at most one
// dispatch per content hash is in flight through the gateway at a
// time, however many clients ask and whichever replicas would serve
// them. The replica-side singleflight (PR 4) already coalesces
// duplicates that reach ONE replica; the lease table closes the
// cross-replica window — during failover, ring changes, or direct
// mixed traffic, two replicas could otherwise burn two SOM trainings
// on the same key. Leases are time-bounded, not held until completion:
// a TTL is the only way a follower can distinguish "leader is slow"
// from "leader is gone" without coordination.
type leaseTable struct {
	mu  sync.Mutex
	m   map[[32]byte]*lease
	ttl time.Duration
	now func() time.Time // injectable for tests

	// waiting counts followers currently parked on a lease — the only
	// way a test can know a follower is parked BEFORE it returns.
	waiting atomic.Int32
}

func newLeaseTable(ttl time.Duration) *leaseTable {
	return &leaseTable{m: make(map[[32]byte]*lease), ttl: ttl, now: time.Now}
}

// len reports the number of live leases (for tests and /ring).
func (t *leaseTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// do runs fn for key under a leader lease, coalescing concurrent
// callers. The first caller becomes the leader and dispatches;
// followers block on the leader's result. A follower whose wait
// crosses the lease's expiry usurps it: the stale lease is dropped and
// the follower re-enters the loop, becoming the new leader (role
// "takeover") unless someone else already did. The returned role says
// which path this caller took.
//
// A lease whose dispatch failed after its leader's request context
// ended holds no answer for anyone else: each follower whose own
// context is still live dispatches again, as a takeover, instead of
// relaying a client's departure as its own 503.
//
// A usurped leader is not cancelled — if its dispatch eventually
// returns, its own followers (those that joined before the takeover)
// get its result. Both results decode from the same content-addressed
// computation, so they are byte-identical by the PR 4 guarantee; the
// takeover costs at most one duplicate dispatch, which the replica's
// cache or singleflight absorbs.
func (t *leaseTable) do(ctx context.Context, key [32]byte, fn func(ctx context.Context) leaseResult) (leaseResult, string) {
	role := RoleLeader
	for {
		t.mu.Lock()
		if l, ok := t.m[key]; ok {
			expires := l.expires
			t.mu.Unlock()
			if role == RoleLeader {
				role = RoleFollower
			}
			wait := expires.Sub(t.now())
			if wait <= 0 {
				// Already expired before we even waited: usurp now.
				t.usurp(key, l)
				role = RoleTakeover
				continue
			}
			timer := time.NewTimer(wait)
			t.waiting.Add(1)
			select {
			case <-l.done:
				t.waiting.Add(-1)
				timer.Stop()
				if l.left && ctx.Err() == nil {
					role = RoleTakeover
					continue
				}
				return l.res, role
			case <-ctx.Done():
				t.waiting.Add(-1)
				timer.Stop()
				return leaseResult{err: ctx.Err()}, role
			case <-timer.C:
				t.waiting.Add(-1)
				t.usurp(key, l)
				role = RoleTakeover
				continue
			}
		}
		l := &lease{done: make(chan struct{}), expires: t.now().Add(t.ttl)}
		t.m[key] = l
		t.mu.Unlock()

		l.res = fn(ctx)
		l.left = l.res.err != nil && ctx.Err() != nil

		t.mu.Lock()
		if t.m[key] == l {
			delete(t.m, key)
		}
		t.mu.Unlock()
		close(l.done)
		return l.res, role
	}
}

// usurp removes l from the table if it is still the registered lease
// for key (a concurrent follower may have usurped it first, or a new
// lease may already have replaced it — both fine: the caller loops and
// either becomes leader or joins the newer lease).
func (t *leaseTable) usurp(key [32]byte, l *lease) {
	t.mu.Lock()
	if t.m[key] == l {
		delete(t.m, key)
	}
	t.mu.Unlock()
}
