package service

import (
	"container/list"
	"sync"
)

// cache is a bounded LRU keyed by a SHA-256. It holds a hop's tables:
// a replica's results (content key → the exact response bytes served,
// so a hit is bit-identical to the cold-path response by
// construction) and each hop's aliases (SHA-256 of a raw body → its
// content key, see Aliases). The zero-or-negative capacity cache
// stores nothing.
type cache[V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[cacheKey]*list.Element
}

type cacheKey = [32]byte

type cacheEntry[V any] struct {
	key cacheKey
	val V
}

// Aliases is a hop's table from the SHA-256 of a raw request body to
// the content key that body decoded to. ReadRequest is its only
// writer, and records an alias only once the body has decoded,
// validated and keyed, so a byte-identical replay can skip all three.
// An alias is a pure function of the bytes and never goes stale; the
// table is an LRU only to bound its memory.
type Aliases = cache[cacheKey]

// NewAliases returns an alias table of at most capacity entries;
// capacity <= 0 records nothing.
func NewAliases(capacity int) *Aliases { return newCache[cacheKey](capacity) }

func newCache[V any](capacity int) *cache[V] {
	return &cache[V]{cap: capacity, ll: list.New(), m: make(map[cacheKey]*list.Element)}
}

// get returns the cached value and promotes the entry. Callers must
// not mutate a returned slice.
func (c *cache[V]) get(key cacheKey) (V, bool) {
	var zero V
	if c.cap <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).val, true
}

// put stores val under key, evicting the least recently used entry
// when over capacity. Storing an existing key refreshes its value
// and recency.
func (c *cache[V]) put(key cacheKey, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry[V]).val = val
		return
	}
	el := c.ll.PushFront(&cacheEntry[V]{key: key, val: val})
	c.m[key] = el
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry[V]).key)
	}
}

// len reports the number of cached entries.
func (c *cache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// entries returns the cache contents ordered least-recently-used
// first — the order a snapshot is written in, so replaying it through
// put rebuilds both the contents and the recency order. The returned
// entries alias the cached values; callers must not mutate them.
func (c *cache[V]) entries() []cacheEntry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheEntry[V], 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*cacheEntry[V]))
	}
	return out
}
