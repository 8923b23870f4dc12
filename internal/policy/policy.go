// Package policy is the composable request-path layer of the routing
// service: a Chain of small, independently testable elements that decide
// what happens to a request before it reaches a serving shard — deadline
// admission, per-client rate limiting, circuit breaking, result caching,
// and criticality-aware (earliest-deadline-first) scheduling.
//
// Every element follows the nil-receiver zero-cost discipline of
// internal/obs and internal/tracev: a nil element (and a nil *Chain)
// ignores every call, so a service built with the chain fully disabled
// pays a single pointer test per request — ~0 ns/op, 0 allocs/op, within
// noise of a service with no chain at all (TestDisabledAllocatesNothing
// pins the allocations; BENCHMARK.json's locusd.inproc_route_us is a
// request through the disabled chain).
//
// The chain's stages map onto the request lifecycle:
//
//	Admit   deadline -> rate limit -> breaker   (reject before queueing)
//	Lookup  result cache                        (answer without routing)
//	queue   Sched / EDFQueue                    (order + shed by criticality)
//	Store   result cache                        (publish the evaluation)
//	Observe breaker feedback                    (failures trip it open)
//	Release aborted admission                   (shed/evicted: no outcome)
//
// Every successful Admit is balanced by exactly one terminal call:
// Observe for requests that ran to an outcome (served, cached, or
// deadline-expired), Release for requests aborted before evaluation
// (shed at a full gate, evicted by preemption). Feeding an abort to
// Observe would fabricate evidence — and leaking a half-open breaker
// probe wedges the breaker open until restart.
//
// Elements never import the service that hosts them; they speak the
// neutral Request vocabulary below and report their decisions as typed
// errors the host maps to transport codes (HTTP 429/503/504).
package policy

import (
	"errors"
	"time"

	"locusroute/internal/geom"
)

// Request is the policy-relevant shape of one service request. The host
// builds it on the stack from its own request type; elements read it and
// never retain it.
type Request struct {
	// Client identifies the caller for per-client rate limiting ("" is a
	// valid shared identity).
	Client string
	// Circuit names the target circuit (cache key component).
	Circuit string
	// Key fingerprints the request's wire set (KeyPins; cache key
	// component).
	Key uint64
	// Deadline is the request's completion deadline — its criticality
	// under EDF: earlier deadline = more critical. The zero time means
	// "no deadline" (least critical, always admissible).
	Deadline time.Time
	// Commit marks a mutating request: never served from or stored to
	// the result cache.
	Commit bool
}

// Sentinel errors for the chain's rejections. Elements wrap them in
// typed errors carrying retry hints; hosts match with errors.Is/As.
var (
	// ErrDeadlineInfeasible rejects a request whose deadline cannot be
	// met even by an empty server (slack below the admission floor).
	ErrDeadlineInfeasible = errors.New("policy: deadline infeasible, not admitted")
	// ErrRateLimited rejects a request over its client's token bucket.
	ErrRateLimited = errors.New("policy: client over rate limit")
	// ErrBreakerOpen rejects every request while the circuit breaker is
	// open.
	ErrBreakerOpen = errors.New("policy: circuit breaker open")
	// ErrEvicted sheds an already-queued request preempted by a more
	// critical arrival at a full admission gate.
	ErrEvicted = errors.New("policy: shed for a more critical request")
)

// Counter is one exported element statistic: a monotonic count with the
// metadata the /metrics exposition needs.
type Counter struct {
	Name  string // metric suffix, snake_case
	Help  string
	Value int64
}

// Element is the read-side contract every chain element satisfies: a
// stable name and its counters, rendered by the host's /metrics and
// /debug/vars surfaces. Decision methods are per-element (Admit on the
// gatekeepers, Get/Put on the cache, queue operations on the scheduler)
// because their signatures differ.
type Element interface {
	// Name is the element's stable identifier (a Prometheus label value).
	Name() string
	// Counters returns the element's statistics in a stable order.
	Counters() []Counter
}

// Config sizes every element; a zero field leaves that element out of
// the chain entirely (nil, zero-cost). The zero Config builds no chain.
type Config struct {
	// AdmitFloor enables deadline admission: requests whose deadline
	// slack is below this floor are rejected up front (ErrDeadlineInfeasible).
	AdmitFloor time.Duration
	// RatePerSec enables per-client token-bucket rate limiting at this
	// sustained rate; Burst is the bucket depth (0 = ceil(RatePerSec),
	// minimum 1).
	RatePerSec float64
	Burst      int
	// BreakerFailures enables the circuit breaker: this many consecutive
	// failures trip it open for BreakerCooldown (0 cooldown = 1s).
	BreakerFailures int
	BreakerCooldown time.Duration
	// CacheEntries enables the result cache with this capacity.
	CacheEntries int
	// EDF enables the criticality scheduler: earliest-deadline-first
	// ordering of whatever is queued when a shard pops its next batch,
	// least-critical-first shedding at a full admission gate.
	EDF bool
}

// Enabled reports whether the configuration enables any element.
func (c Config) Enabled() bool {
	return c.AdmitFloor > 0 || c.RatePerSec > 0 || c.BreakerFailures > 0 ||
		c.CacheEntries > 0 || c.EDF
}

// Chain is the composed policy pipeline. A nil *Chain (what New returns
// for a fully disabled Config) ignores every call at the cost of one
// pointer test — hosts hold a *Chain unconditionally and never branch on
// configuration themselves.
type Chain struct {
	deadline *Deadline
	limit    *RateLimit
	breaker  *Breaker
	cache    *Cache
	sched    *Sched
}

// New builds the chain cfg describes, or nil when cfg enables nothing.
func New(cfg Config) *Chain {
	if !cfg.Enabled() {
		return nil
	}
	c := &Chain{}
	if cfg.AdmitFloor > 0 {
		c.deadline = NewDeadline(cfg.AdmitFloor)
	}
	if cfg.RatePerSec > 0 {
		c.limit = NewRateLimit(cfg.RatePerSec, cfg.Burst)
	}
	if cfg.BreakerFailures > 0 {
		c.breaker = NewBreaker(cfg.BreakerFailures, cfg.BreakerCooldown)
	}
	if cfg.CacheEntries > 0 {
		c.cache = NewCache(cfg.CacheEntries)
	}
	if cfg.EDF {
		c.sched = NewSched()
	}
	return c
}

// Admit runs the gatekeeping stages in order — deadline feasibility,
// rate limit, breaker — returning the first rejection.
func (c *Chain) Admit(now time.Time, req *Request) error {
	if c == nil {
		return nil
	}
	if err := c.deadline.Admit(now, req); err != nil {
		return err
	}
	if err := c.limit.Admit(now, req); err != nil {
		return err
	}
	return c.breaker.Admit(now, req)
}

// ElementTimer receives one element's admission-decision duration. The
// serving layer threads a traced request's span recorder here.
type ElementTimer func(element string, d time.Duration)

// AdmitTimed is Admit with per-element attribution: timer receives each
// enabled gatekeeper's decision time, including the one that rejects.
// A nil timer is the untimed Admit — the hot path — so hosts make this
// one call and pass a timer only for traced requests; untraced
// admissions pay no extra clock reads.
func (c *Chain) AdmitTimed(now time.Time, req *Request, timer ElementTimer) error {
	if c == nil || timer == nil {
		return c.Admit(now, req)
	}
	for _, el := range c.Elements() {
		gate, ok := el.(interface {
			Admit(time.Time, *Request) error
		})
		if !ok {
			continue // cache and scheduler decide nothing at admission
		}
		t0 := time.Now()
		err := gate.Admit(now, req)
		timer(el.Name(), time.Since(t0))
		if err != nil {
			return err
		}
	}
	return nil
}

// Lookup consults the result cache; a commit request or a disabled cache
// always misses. epoch is the host's current cost epoch for the circuit.
func (c *Chain) Lookup(req *Request, epoch uint64) (any, bool) {
	if c == nil || req.Commit {
		return nil, false
	}
	return c.cache.Get(req.Circuit, req.Key, epoch)
}

// Store publishes an evaluated result under the epoch the evaluation
// observed. Commit requests are never cached.
func (c *Chain) Store(req *Request, epoch uint64, v any) {
	if c == nil || req.Commit {
		return
	}
	c.cache.Put(req.Circuit, req.Key, epoch, v)
}

// Observe feeds one completed request's outcome to the breaker.
func (c *Chain) Observe(now time.Time, failed bool) {
	if c == nil {
		return
	}
	c.breaker.Observe(now, failed)
}

// Release balances an Admit whose request never reached evaluation —
// shed at a full admission gate or evicted by preemption. The breaker
// gets a neutral probe release instead of a fabricated outcome.
func (c *Chain) Release() {
	if c == nil {
		return
	}
	c.breaker.Release()
}

// Sched returns the criticality scheduler, nil when EDF is disabled.
// Hosts use it both as the on/off switch for EDF dispatch and as the
// counter sink for scheduling decisions.
func (c *Chain) Sched() *Sched {
	if c == nil {
		return nil
	}
	return c.sched
}

// Elements returns the enabled elements in pipeline order, for metrics
// export. Nil chain returns nil.
func (c *Chain) Elements() []Element {
	if c == nil {
		return nil
	}
	var out []Element
	if c.deadline != nil {
		out = append(out, c.deadline)
	}
	if c.limit != nil {
		out = append(out, c.limit)
	}
	if c.breaker != nil {
		out = append(out, c.breaker)
	}
	if c.cache != nil {
		out = append(out, c.cache)
	}
	if c.sched != nil {
		out = append(out, c.sched)
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
