package validator

import "bmac/internal/intern"

// ParseCache is a sharded, bounded LRU interning table for ParseTx results.
// Every peer path in a process unmarshals the same envelopes — the
// sequential validator, the pipelined engine, the BMac cross-check, durable
// replay — and the full payload→action→rwset decode walk is pure, so its
// result can be computed once and shared (parse-once).
//
// It is an intern.Table keyed by the payload bytes: a hash collision
// degrades to a miss, never to a wrong transaction, and a payload is parsed
// from the table's private copy, so a cache entry retains only its own
// transaction's bytes, never the multi-transaction block buffer the payload
// was sliced from.
//
// Cached results are shared and strictly read-only: callers must never
// mutate a ParsedTx's pointed-to data — the validator and engine only read
// them.
//
// A nil *ParseCache is valid and means "disabled": every call parses.
type ParseCache intern.Table[ParsedTx]

// NewParseCache creates a cache bounded to roughly `size` parsed envelopes.
// size < 1 returns nil (the disabled cache).
func NewParseCache(size int) *ParseCache {
	return (*ParseCache)(intern.New[ParsedTx](size))
}

func (c *ParseCache) table() *intern.Table[ParsedTx] { return (*intern.Table[ParsedTx])(c) }

// ParseTx returns the parsed view of one envelope payload, from the cache
// when an identical payload has been parsed before. hit reports whether the
// result was interned (so callers can account parse-once savings). A nil
// receiver always parses.
//
// bmaclint:noalloc
func (c *ParseCache) ParseTx(payloadBytes []byte) (p ParsedTx, hit bool) {
	return c.table().Get(payloadBytes, ParseTx)
}

// Stats reports cumulative hits and misses.
func (c *ParseCache) Stats() (hits, misses int64) { return c.table().Stats() }

// HitRate reports hits / (hits + misses), 0 when empty or nil.
func (c *ParseCache) HitRate() float64 { return c.table().HitRate() }
