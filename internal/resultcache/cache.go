// Package resultcache is the content-addressed result cache of the routing
// service: a sharded in-memory LRU keyed by api.ProblemHash, with a byte
// budget enforced per shard and an optional persistent snapshot format
// (see persist.go) so a warm cache survives restarts.
//
// The cache stores opaque values with an explicit byte size; it never
// inspects them, and it never computes one: a caller that misses runs its
// own search and stores the answer with Put. Correctness rests on the
// content address: the server only keys entries by the canonical problem
// hash, and routing is deterministic, so a stored value is exactly what
// recomputing would produce, and two callers that miss on one key at once
// store the same bytes.
package resultcache

import (
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
}

type entry struct {
	key        Key
	val        any
	size       int64
	prev, next *entry
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
// Every call counts one lookup, as a hit or as a miss.
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
	c.window.record(ok)
	if ok {
		c.hits.Add(1)
		if c.metrics != nil {
			c.metrics.CacheHits.Inc()
		}
		return v, true
	}
	c.misses.Add(1)
	if c.metrics != nil {
		c.metrics.CacheMisses.Inc()
	}
	return nil, false
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
