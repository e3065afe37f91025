// Package resultcache is the content-addressed result cache of the routing
// service: a sharded in-memory LRU keyed by api.ProblemHash, with a byte
// budget enforced per shard, singleflight collapsing of concurrent
// identical misses, and an optional persistent snapshot format (see
// persist.go) so a warm cache survives restarts.
//
// The cache stores opaque values with an explicit byte size; it never
// inspects them. Correctness rests on the content address: the server only
// keys entries by the canonical problem hash, and routing is deterministic,
// so a stored value is exactly what recomputing would produce.
package resultcache

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"clockroute/internal/telemetry"
)

// Key is the content address of one cached problem — an api.ProblemHash.
// Declared structurally here so the cache does not import the wire package.
type Key [32]byte

// Config tunes a Cache.
type Config struct {
	// MaxBytes is the total byte budget across all shards (default 64 MiB).
	// Entries are evicted LRU per shard once its slice of the budget is
	// exceeded.
	MaxBytes int64
	// Shards is the number of independently locked shards, rounded up to a
	// power of two (default 16).
	Shards int
	// Metrics, when non-nil, receives cache_hits / cache_misses /
	// cache_evictions counter increments and the cache_bytes gauge.
	Metrics *telemetry.Metrics
}

const (
	defaultMaxBytes = 64 << 20
	defaultShards   = 16
)

// Cache is a sharded LRU of content-addressed results. All methods are
// safe for concurrent use.
type Cache struct {
	shards []shard
	mask   uint64
	max    int64 // whole-cache budget; each shard holds max/len(shards)

	bytes   atomic.Int64 // live bytes across shards
	entries atomic.Int64
	hits    atomic.Int64
	misses  atomic.Int64
	evicts  atomic.Int64

	// window tracks hits/misses over a sliding ~60s window next to the
	// lifetime counters above (see hitWindow).
	window hitWindow

	metrics *telemetry.Metrics
}

// shard is one lock domain: a map for lookup plus an intrusive LRU list.
type shard struct {
	mu     sync.Mutex
	items  map[Key]*entry
	head   *entry // most recently used
	tail   *entry // least recently used
	bytes  int64
	budget int64

	// flights holds the in-progress computes of Do, one per key, so
	// concurrent identical misses run the search once.
	flights map[Key]*flight
}

type entry struct {
	key        Key
	val        any
	size       int64
	prev, next *entry
}

type flight struct {
	done chan struct{}
	val  any
	err  error
}

// New builds a cache from cfg (zero values select the documented
// defaults).
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = defaultMaxBytes
	}
	n := cfg.Shards
	if n <= 0 {
		n = defaultShards
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	c := &Cache{
		shards:  make([]shard, pow),
		mask:    uint64(pow - 1),
		max:     cfg.MaxBytes,
		metrics: cfg.Metrics,
	}
	for i := range c.shards {
		c.shards[i].items = make(map[Key]*entry)
		c.shards[i].flights = make(map[Key]*flight)
		c.shards[i].budget = cfg.MaxBytes / int64(pow)
	}
	return c
}

// shardFor picks the shard by the key's leading bytes — the key is a
// cryptographic hash, so any fixed slice of it is uniform.
func (c *Cache) shardFor(k Key) *shard {
	v := uint64(k[0]) | uint64(k[1])<<8 | uint64(k[2])<<16 | uint64(k[3])<<24
	return &c.shards[v&c.mask]
}

// Get returns the cached value for k, marking it most recently used.
func (c *Cache) Get(k Key) (any, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	var v any
	if ok {
		s.moveToFront(e)
		// Copy the value out under the lock: Put's replace branch mutates
		// e.val in place, so reading it after unlock would race.
		v = e.val
	}
	s.mu.Unlock()
	if ok {
		c.countHit()
		return v, true
	}
	c.countMiss()
	return nil, false
}

// countHit / countMiss bump the lifetime counters, the sliding window,
// and the shared registry for one logical lookup.
func (c *Cache) countHit() {
	c.hits.Add(1)
	c.window.record(true)
	if c.metrics != nil {
		c.metrics.CacheHits.Inc()
	}
}

func (c *Cache) countMiss() {
	c.misses.Add(1)
	c.window.record(false)
	if c.metrics != nil {
		c.metrics.CacheMisses.Inc()
	}
}

// Peek is Get for callers that fall through to Do on absence: a present
// entry counts a hit and is marked most recently used, but absence counts
// nothing — Do will count that same logical lookup as the miss, and one
// request must not register as two.
func (c *Cache) Peek(k Key) (any, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	var v any
	if ok {
		s.moveToFront(e)
		v = e.val // copied under the lock; see Get
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	c.countHit()
	return v, true
}

// Put stores v under k with the given byte size, replacing any existing
// entry and evicting LRU entries past the shard budget. Values larger than
// the shard budget are not stored at all — one oversized response must not
// wipe a whole shard.
func (c *Cache) Put(k Key, v any, size int64) {
	s := c.shardFor(k)
	if size > s.budget {
		return
	}
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		s.bytes += size - e.size
		c.bytes.Add(size - e.size)
		e.val, e.size = v, size
		s.moveToFront(e)
	} else {
		e := &entry{key: k, val: v, size: size}
		s.items[k] = e
		s.pushFront(e)
		s.bytes += size
		c.bytes.Add(size)
		c.entries.Add(1)
	}
	var evicted int64
	for s.bytes > s.budget && s.tail != nil && s.tail != s.head {
		evicted++
		c.evictLocked(s, s.tail)
	}
	s.mu.Unlock()
	if c.metrics != nil {
		if evicted > 0 {
			c.metrics.CacheEvictions.Add(evicted)
		}
		c.metrics.CacheBytes.Set(c.bytes.Load())
	}
}

// evictLocked unlinks e from s. Caller holds s.mu.
func (c *Cache) evictLocked(s *shard, e *entry) {
	delete(s.items, e.key)
	s.unlink(e)
	s.bytes -= e.size
	c.bytes.Add(-e.size)
	c.entries.Add(-1)
	c.evicts.Add(1)
}

// Do returns the value for k, computing it at most once across concurrent
// callers. The compute runs on its own goroutine, detached from any one
// caller: the first caller starts the flight and every caller — starter
// included — waits on it bounded by its own ctx, so one caller giving up
// (client gone, short deadline) neither aborts the shared compute nor
// blocks the other waiters past their deadlines. ctx bounds only this
// caller's wait, never the compute itself — cancel the compute through
// whatever context the compute closure captures.
//
// hit reports whether this caller got the value without starting the
// compute (a cache hit or a joined flight). A successful compute fills
// the cache; a failed one fills nothing and delivers its error to every
// waiter. A panicking compute is contained in the flight goroutine and
// surfaces to every waiter as a *PanicError.
//
// With refresh set, the lookup is skipped — compute always runs (still
// singleflighted) and overwrites the entry on success.
func (c *Cache) Do(ctx context.Context, k Key, refresh bool, compute func() (any, int64, error)) (v any, hit bool, err error) {
	s := c.shardFor(k)
	s.mu.Lock()
	if !refresh {
		if e, ok := s.items[k]; ok {
			s.moveToFront(e)
			v = e.val // copied under the lock; see Get
			s.mu.Unlock()
			c.countHit()
			return v, true, nil
		}
	}
	if f, ok := s.flights[k]; ok {
		s.mu.Unlock()
		v, err = c.waitFlight(ctx, f, true)
		return v, err == nil, err
	}
	f := &flight{done: make(chan struct{})}
	s.flights[k] = f
	s.mu.Unlock()

	c.countMiss()
	go c.runFlight(s, k, f, compute)
	v, err = c.waitFlight(ctx, f, false)
	return v, false, err
}

// runFlight executes one compute, publishes the outcome on f, fills the
// cache on success, and retires the flight. Completion is tracked
// explicitly so a compute legitimately returning a nil value is not
// mistaken for a panic; an actual panic is contained here (it must not
// unwind into the runtime off this goroutine) and published as *PanicError.
func (c *Cache) runFlight(s *shard, k Key, f *flight, compute func() (any, int64, error)) {
	var (
		val       any
		size      int64
		cerr      error
		completed bool
	)
	defer func() {
		switch {
		case !completed:
			f.err = &PanicError{Value: recover(), Stack: debug.Stack()}
		case cerr != nil:
			f.err = cerr
		default:
			f.val = val
			c.Put(k, val, size)
		}
		s.mu.Lock()
		delete(s.flights, k)
		s.mu.Unlock()
		close(f.done)
	}()
	val, size, cerr = compute()
	completed = true
}

// waitFlight blocks until f settles or ctx expires, whichever is first.
// countHit records a shared success as a cache hit (joiners only — the
// starter already counted its miss).
func (c *Cache) waitFlight(ctx context.Context, f *flight, countHit bool) (any, error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if f.err != nil {
		return nil, f.err
	}
	if countHit {
		c.countHit()
	}
	return f.val, nil
}

// PanicError is delivered to every waiter of a flight whose compute
// panicked: the panic cannot unwind into any caller (the compute runs on
// the flight's own goroutine), so it is contained and carried as a value
// with the stack captured at the panic site.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("resultcache: result computation panicked: %v", e.Value)
}

// Len reports the number of live entries.
func (c *Cache) Len() int { return int(c.entries.Load()) }

// Bytes reports the live byte total across shards.
func (c *Cache) Bytes() int64 { return c.bytes.Load() }

// MaxBytes reports the configured whole-cache budget.
func (c *Cache) MaxBytes() int64 { return c.max }

// Stats is a point-in-time snapshot of the cache counters. Hits/Misses
// are lifetime totals; WindowHits/WindowMisses cover the sliding ~60s
// window only.
type Stats struct {
	Entries      int
	Bytes        int64
	MaxBytes     int64
	Hits         int64
	Misses       int64
	Evictions    int64
	WindowHits   int64
	WindowMisses int64
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	wh, wm := c.window.totals()
	return Stats{
		Entries:      c.Len(),
		Bytes:        c.Bytes(),
		MaxBytes:     c.max,
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Evictions:    c.evicts.Load(),
		WindowHits:   wh,
		WindowMisses: wm,
	}
}

// ForEach visits every live entry in unspecified order, stopping early
// when fn returns false. Each shard is locked only while its own entries
// are visited; fn must not call back into the cache.
func (c *Cache) ForEach(fn func(k Key, v any, size int64) bool) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.head; e != nil; e = e.next {
			if !fn(e.key, e.val, e.size) {
				s.mu.Unlock()
				return
			}
		}
		s.mu.Unlock()
	}
}

// --- intrusive LRU list (caller holds s.mu) ---

func (s *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
