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
