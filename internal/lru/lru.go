// Package lru is the repository's one bounded least-recently-used
// table, keyed by 32 bytes, most often a SHA-256. A replica keeps its
// results and its raw-body aliases in it, the gateway its aliases, and
// a SOM start table its prepared training starts and kernel
// schedules. It depends only on the standard library, so every
// package may import it.
package lru

import (
	"container/list"
	"sync"
)

// Key is a table key: a SHA-256 digest, or a value short enough to
// write into 32 bytes as it is.
type Key = [32]byte

// Cache is a bounded LRU table, safe for concurrent use. The capacity
// bounds the sum of the entries' sizes: every entry of a table from
// New counts 1, and an entry of a table from NewSized counts what its
// size function returns. An entry larger than the capacity is not
// stored, so a cache whose capacity is zero or negative stores
// nothing.
type Cache[V any] struct {
	mu   sync.Mutex
	cap  int
	size func(V) int // nil: every entry counts 1
	used int
	ll   *list.List // front = most recently used
	m    map[Key]*list.Element
}

// Entry is one key and its value.
type Entry[V any] struct {
	Key Key
	Val V
}

// node is a list element's value: an entry and the size it counts.
type node[V any] struct {
	Entry[V]
	size int
}

// New returns a cache of at most capacity entries.
func New[V any](capacity int) *Cache[V] {
	return NewSized[V](capacity, nil)
}

// NewSized returns a cache whose entries' sizes, as size reports
// them, sum to at most capacity. size must return the same value for
// a value every time.
func NewSized[V any](capacity int, size func(V) int) *Cache[V] {
	return &Cache[V]{cap: capacity, size: size, ll: list.New(), m: make(map[Key]*list.Element)}
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
	return el.Value.(*node[V]).Val, true
}

// Put stores val under key, evicting least recently used entries
// until the sizes fit the capacity. Storing an existing key refreshes
// its value and recency. A value larger than the capacity is not
// stored.
func (c *Cache[V]) Put(key Key, val V) {
	n := 1
	if c.size != nil {
		n = c.size(val)
	}
	if n > c.cap {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*node[V])
		c.used += n - e.size
		e.Val, e.size = val, n
	} else {
		c.m[key] = c.ll.PushFront(&node[V]{Entry: Entry[V]{Key: key, Val: val}, size: n})
		c.used += n
	}
	for c.used > c.cap {
		oldest := c.ll.Back()
		e := c.ll.Remove(oldest).(*node[V])
		delete(c.m, e.Key)
		c.used -= e.size
	}
}

// Len reports the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Size reports the sum of the cached entries' sizes.
func (c *Cache[V]) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
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
		out = append(out, el.Value.(*node[V]).Entry)
	}
	return out
}
