// Package policy holds the serving layer's two request-path elements:
// the result cache (Cache), which answers a repeated wire set without
// routing it, and the criticality scheduler (Sched), which switches the
// host's queue (EDFQueue) from arrival order to earliest-deadline-first
// and its full-gate shed to least-critical-first.
//
// Every element follows the nil-receiver zero-cost discipline of
// internal/obs and internal/tracev: a nil element ignores every call,
// so a service built with both disabled pays a pointer test per hook —
// ~0 ns/op, 0 allocs/op, within noise of a service with no elements at
// all (TestDisabledAllocatesNothing pins the allocations;
// BENCHMARK.json's locusd.inproc_route_us is a request through the
// disabled elements).
//
// Elements never import the service that hosts them: the cache keys on
// plain (circuit, wire-set key, epoch) values and stores opaque
// results, and the queue carries opaque host values.
package policy

import (
	"errors"

	"locusroute/internal/geom"
)

// ErrEvicted sheds an already-queued request preempted by a more
// critical arrival at a full admission gate.
var ErrEvicted = errors.New("policy: shed for a more critical request")

// Counter is one exported element statistic: a monotonic count with the
// metadata the /metrics exposition needs.
type Counter struct {
	Name  string // metric suffix, snake_case
	Help  string
	Value int64
}

// Element is the read side both elements satisfy: a stable name and its
// counters, rendered by the host's /metrics and /debug/vars surfaces.
type Element interface {
	// Name is the element's stable identifier (a Prometheus label value).
	Name() string
	// Counters returns the element's statistics in a stable order.
	Counters() []Counter
}

// Config sizes the elements; a zero field leaves that element nil
// (disabled, zero-cost).
type Config struct {
	// CacheEntries enables the result cache with this capacity.
	CacheEntries int
	// EDF enables the criticality scheduler: earliest-deadline-first
	// ordering of whatever is queued when a shard pops its next batch,
	// least-critical-first shedding at a full admission gate.
	EDF bool
}

// New builds the elements cfg enables, each nil when disabled.
func New(cfg Config) (*Cache, *Sched) {
	var cache *Cache
	var sched *Sched
	if cfg.CacheEntries > 0 {
		cache = NewCache(cfg.CacheEntries)
	}
	if cfg.EDF {
		sched = NewSched()
	}
	return cache, sched
}

// Elements lists the enabled elements in request-path order (cache,
// then scheduler), for metrics export; nil when both are disabled.
func Elements(cache *Cache, sched *Sched) []Element {
	var out []Element
	if cache != nil {
		out = append(out, cache)
	}
	if sched != nil {
		out = append(out, sched)
	}
	return out
}

// KeyPins fingerprints a pin sequence with FNV-1a: the cache's wire-set
// key. Pin order matters — the service caches what it was asked, not a
// canonicalised wire.
func KeyPins(pins []geom.Point) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range pins {
		h ^= uint64(uint32(p.X))
		h *= prime64
		h ^= uint64(uint32(p.Y))
		h *= prime64
	}
	return h
}
