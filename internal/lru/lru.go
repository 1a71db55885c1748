// Package lru is the repository's one bounded least-recently-used
// table, keyed by a SHA-256. A replica keeps its results and its
// raw-body aliases in it, the gateway its aliases, and a SOM start
// table its prepared training starts. It depends only on the standard
// library, so every package may import it.
package lru

import (
	"container/list"
	"sync"
)

// Key is a table key: a SHA-256 digest.
type Key = [32]byte

// Cache is a bounded LRU table, safe for concurrent use. A cache
// whose capacity is zero or negative stores nothing.
type Cache[V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[Key]*list.Element
}

// Entry is one key and its value.
type Entry[V any] struct {
	Key Key
	Val V
}

// New returns a cache of at most capacity entries.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{cap: capacity, ll: list.New(), m: make(map[Key]*list.Element)}
}

// Get returns the cached value and promotes the entry. Callers must
// not mutate a returned value.
func (c *Cache[V]) Get(key Key) (V, bool) {
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
	return el.Value.(*Entry[V]).Val, true
}

// Put stores val under key, evicting the least recently used entry
// when over capacity. Storing an existing key refreshes its value
// and recency.
func (c *Cache[V]) Put(key Key, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*Entry[V]).Val = val
		return
	}
	el := c.ll.PushFront(&Entry[V]{Key: key, Val: val})
	c.m[key] = el
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*Entry[V]).Key)
	}
}

// Len reports the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Entries returns the cache contents ordered least-recently-used
// first, so replaying them through Put rebuilds both the contents and
// the recency order. The returned entries alias the cached values;
// callers must not mutate them.
func (c *Cache[V]) Entries() []Entry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry[V], 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*Entry[V]))
	}
	return out
}
