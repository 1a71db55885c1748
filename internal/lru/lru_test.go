package lru

import "testing"

func key(b byte) Key {
	var k Key
	k[0] = b
	return k
}

func TestCacheLRUEviction(t *testing.T) {
	c := New[[]byte](2)
	c.Put(key(1), []byte("one"))
	c.Put(key(2), []byte("two"))
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("key 1 evicted below capacity")
	}
	// key 1 was just used, so inserting key 3 must evict key 2.
	c.Put(key(3), []byte("three"))
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("LRU kept the least recently used entry")
	}
	if v, ok := c.Get(key(1)); !ok || string(v) != "one" {
		t.Fatalf("key 1 lost or corrupted: %q %v", v, ok)
	}
	if v, ok := c.Get(key(3)); !ok || string(v) != "three" {
		t.Fatalf("key 3 lost or corrupted: %q %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	// Least recently used first: key 1 was read before key 3.
	if es := c.Entries(); len(es) != 2 || es[0].Key != key(1) || es[1].Key != key(3) {
		t.Fatalf("entries %v, want key 1 then key 3", es)
	}
}

func TestCacheRefreshExistingKey(t *testing.T) {
	c := New[[]byte](2)
	c.Put(key(1), []byte("a"))
	c.Put(key(1), []byte("b"))
	if c.Len() != 1 {
		t.Fatalf("duplicate put grew the cache to %d entries", c.Len())
	}
	if v, _ := c.Get(key(1)); string(v) != "b" {
		t.Fatalf("refresh kept the stale value %q", v)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := New[[]byte](0)
	c.Put(key(1), []byte("x"))
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("disabled cache returned a value")
	}
	if c.Len() != 0 {
		t.Fatalf("disabled cache holds %d entries", c.Len())
	}
}

// TestCacheSizedEviction: a sized table evicts least recently used
// entries until the sizes fit its capacity, refreshing a key counts
// its new size, and an entry larger than the capacity is not stored.
func TestCacheSizedEviction(t *testing.T) {
	c := NewSized[[]byte](10, func(v []byte) int { return len(v) })
	c.Put(key(1), []byte("aaaa"))
	c.Put(key(2), []byte("bbbb"))
	if c.Len() != 2 || c.Size() != 8 {
		t.Fatalf("len %d, size %d; want 2 and 8", c.Len(), c.Size())
	}
	// Key 1 is the least recently used: 4 + 4 + 3 > 10 evicts it.
	c.Put(key(3), []byte("ccc"))
	if _, ok := c.Get(key(1)); ok || c.Len() != 2 || c.Size() != 7 {
		t.Fatalf("key 1 kept %v, len %d, size %d; want evicted, 2 and 7", ok, c.Len(), c.Size())
	}
	// Growing key 2 to 8 evicts key 3, and shrinking it frees the rest.
	c.Put(key(2), []byte("bbbbbbbb"))
	if _, ok := c.Get(key(3)); ok || c.Size() != 8 {
		t.Fatalf("key 3 kept %v, size %d; want evicted and 8", ok, c.Size())
	}
	c.Put(key(2), []byte("b"))
	if c.Size() != 1 {
		t.Fatalf("size %d after shrinking key 2, want 1", c.Size())
	}
	// Too large for the table: stored nowhere, and nothing evicted.
	c.Put(key(4), []byte("0123456789a"))
	if _, ok := c.Get(key(4)); ok || c.Len() != 1 || c.Size() != 1 {
		t.Fatalf("oversized entry stored %v, len %d, size %d; want not stored, 1 and 1", ok, c.Len(), c.Size())
	}
	// An entry of exactly the capacity is stored alone.
	c.Put(key(5), []byte("0123456789"))
	if v, ok := c.Get(key(5)); !ok || len(v) != 10 || c.Len() != 1 || c.Size() != 10 {
		t.Fatalf("entry of the capacity: stored %v, len %d, size %d; want stored alone at 10", ok, c.Len(), c.Size())
	}
}
