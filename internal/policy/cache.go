package policy

import (
	"sync"
	"sync/atomic"
)

// Cache is the result cache, keyed by (circuit, wire-set key, cost
// epoch). The epoch is the host's serving epoch for the circuit: every
// committed path and applied mutation bumps it, so a hit is only
// possible while the congestion state a result was computed against is
// still current — changes invalidate by advancing the epoch, never by
// scanning the cache. Stale-epoch entries age out through the FIFO ring.
//
// Values are opaque (any); the host stores its own response type.
// A nil *Cache never hits and stores nothing, at zero cost.
type Cache struct {
	cap int

	mu      sync.Mutex
	entries map[cacheKey]any
	ring    []cacheKey // insertion order, for FIFO eviction
	next    int

	hits      atomic.Int64
	misses    atomic.Int64
	stores    atomic.Int64
	evictions atomic.Int64
}

type cacheKey struct {
	circuit string
	key     uint64
	epoch   uint64
}

// NewCache returns a result cache holding up to capacity entries
// (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:     capacity,
		entries: make(map[cacheKey]any, capacity),
		ring:    make([]cacheKey, 0, capacity),
	}
}

// Get returns the value stored for (circuit, key, epoch), if any.
func (c *Cache) Get(circuit string, key, epoch uint64) (any, bool) {
	if c == nil {
		return nil, false
	}
	ck := cacheKey{circuit: circuit, key: key, epoch: epoch}
	c.mu.Lock()
	v, ok := c.entries[ck]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Put stores v under (circuit, key, epoch), evicting the oldest entry
// at capacity. Re-storing an existing key overwrites in place.
func (c *Cache) Put(circuit string, key, epoch uint64, v any) {
	if c == nil {
		return
	}
	ck := cacheKey{circuit: circuit, key: key, epoch: epoch}
	c.mu.Lock()
	if _, exists := c.entries[ck]; exists {
		c.entries[ck] = v
		c.mu.Unlock()
		c.stores.Add(1)
		return
	}
	evicted := false
	if len(c.ring) < c.cap {
		c.ring = append(c.ring, ck)
	} else {
		delete(c.entries, c.ring[c.next])
		c.ring[c.next] = ck
		c.next = (c.next + 1) % c.cap
		evicted = true
	}
	c.entries[ck] = v
	c.mu.Unlock()
	c.stores.Add(1)
	if evicted {
		c.evictions.Add(1)
	}
}

// Len reports the live entry count (for tests and vars).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Name implements Element.
func (c *Cache) Name() string { return "cache" }

// Counters implements Element.
func (c *Cache) Counters() []Counter {
	return []Counter{
		{Name: "hits_total", Help: "requests answered from the result cache", Value: c.hits.Load()},
		{Name: "misses_total", Help: "cache lookups that missed", Value: c.misses.Load()},
		{Name: "stores_total", Help: "results stored in the cache", Value: c.stores.Load()},
		{Name: "evictions_total", Help: "entries evicted at capacity", Value: c.evictions.Load()},
		{Name: "entries", Help: "live cache entries", Value: int64(c.Len())},
	}
}
