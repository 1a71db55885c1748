package service

import "hmeans/internal/lru"

// A hop keeps its tables in lru caches keyed by a SHA-256: a
// replica's results (content key → the exact response bytes served,
// so a hit is bit-identical to the cold-path response by
// construction) and each hop's aliases (SHA-256 of a raw body → its
// content key, see Aliases).
type cacheKey = lru.Key

// Aliases is a hop's table from the SHA-256 of a raw request body to
// the content key that body decoded to. ReadRequest is its only
// writer, and records an alias only once the body has decoded,
// validated and keyed, so a byte-identical replay can skip all three.
// An alias is a pure function of the bytes and never goes stale; the
// table is an LRU only to bound its memory.
type Aliases = lru.Cache[cacheKey]

// NewAliases returns an alias table of at most capacity entries;
// capacity <= 0 records nothing.
func NewAliases(capacity int) *Aliases { return lru.New[cacheKey](capacity) }
