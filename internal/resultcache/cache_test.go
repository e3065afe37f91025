package resultcache

import (
	"fmt"
	"sync"
	"testing"

	"clockroute/internal/telemetry"
)

func key(b byte, rest ...byte) Key {
	var k Key
	k[0] = b
	copy(k[1:], rest)
	return k
}

// oneShard builds a single-shard cache so LRU order is observable.
func oneShard(maxBytes int64) *Cache {
	return New(Config{MaxBytes: maxBytes, Shards: 1})
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(Config{})
	k := key(1)
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(k, "v1", 10)
	v, ok := c.Get(k)
	if !ok || v.(string) != "v1" {
		t.Fatalf("got %v/%v, want v1 hit", v, ok)
	}
	c.Put(k, "v2", 20) // replace
	if v, _ := c.Get(k); v.(string) != "v2" {
		t.Fatalf("replace lost: %v", v)
	}
	if c.Len() != 1 || c.Bytes() != 20 {
		t.Fatalf("accounting: len=%d bytes=%d, want 1/20", c.Len(), c.Bytes())
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 2 hits 1 miss", st)
	}
}

func TestEvictionUnderByteBudget(t *testing.T) {
	m := telemetry.NewMetrics()
	c := New(Config{MaxBytes: 100, Shards: 1, Metrics: m})
	// Fill to the budget, then overflow: the oldest entries must go, the
	// byte total must never exceed the budget after Put returns.
	for i := 0; i < 10; i++ {
		c.Put(key(byte(i)), i, 10)
	}
	if c.Len() != 10 || c.Bytes() != 100 {
		t.Fatalf("pre-overflow: len=%d bytes=%d", c.Len(), c.Bytes())
	}
	c.Put(key(10), 10, 30) // must evict the three oldest (0,1,2)
	if c.Bytes() > 100 {
		t.Fatalf("budget exceeded: %d bytes", c.Bytes())
	}
	if c.Len() != 8 {
		t.Fatalf("len=%d after eviction, want 8", c.Len())
	}
	for i := 0; i < 3; i++ {
		if _, ok := c.Get(key(byte(i))); ok {
			t.Fatalf("entry %d survived; LRU order violated", i)
		}
	}
	for i := 3; i <= 10; i++ {
		if _, ok := c.Get(key(byte(i))); !ok {
			t.Fatalf("entry %d evicted out of order", i)
		}
	}
	if got := c.Stats().Evictions; got != 3 {
		t.Fatalf("evictions=%d, want 3", got)
	}
	if m.CacheEvictions.Value() != 3 {
		t.Fatalf("telemetry evictions=%d, want 3", m.CacheEvictions.Value())
	}
	if m.CacheBytes.Value() != c.Bytes() {
		t.Fatalf("telemetry bytes gauge %d != cache %d", m.CacheBytes.Value(), c.Bytes())
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	c := oneShard(30)
	c.Put(key(1), 1, 10)
	c.Put(key(2), 2, 10)
	c.Put(key(3), 3, 10)
	c.Get(key(1)) // 1 becomes MRU; 2 is now LRU
	c.Put(key(4), 4, 10)
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("LRU entry 2 survived")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("recently used entry 1 evicted")
	}
}

func TestOversizedValueNotStored(t *testing.T) {
	c := oneShard(100)
	c.Put(key(1), 1, 10)
	c.Put(key(2), "huge", 101)
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("oversized entry stored")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("oversized Put wiped the shard")
	}
}

func TestShardDistribution(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Shards: 8})
	const n = 512
	for i := 0; i < n; i++ {
		c.Put(key(byte(i), byte(i>>8), byte(3*i)), i, 16)
	}
	if c.Len() == 0 {
		t.Fatal("nothing stored")
	}
	// Every shard should hold something under a uniform key prefix.
	used := 0
	for i := range c.shards {
		if len(c.shards[i].items) > 0 {
			used++
		}
	}
	if used < len(c.shards)/2 {
		t.Fatalf("only %d/%d shards used — sharding is skewed", used, len(c.shards))
	}
}

// TestConcurrentReplaceAndGet hammers a single key with in-place replaces
// and reads from many goroutines. Run under -race this is the regression
// test for the torn-read bug: Get must copy the entry's value out while
// still holding the shard lock, because Put's replace branch mutates it in
// place.
func TestConcurrentReplaceAndGet(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Shards: 1})
	k := key(42)
	c.Put(k, "seed", 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if w%2 == 0 {
					c.Put(k, fmt.Sprintf("v%d/%d", w, i), int64(8+i%5))
				} else if v, ok := c.Get(k); ok {
					_ = v.(string) // a torn read would fail this assertion
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestConcurrentMixedOps(t *testing.T) {
	c := New(Config{MaxBytes: 4096, Shards: 4})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(byte(i%32), byte(w))
				if i%2 == 0 {
					c.Put(k, i, 64)
				} else {
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Bytes() > 4096 {
		t.Fatalf("budget exceeded under concurrency: %d", c.Bytes())
	}
}
