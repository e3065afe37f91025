package resultcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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

func TestDoSingleflight(t *testing.T) {
	c := New(Config{})
	k := key(7)
	var computes atomic.Int32
	gate := make(chan struct{})
	const callers = 16

	var wg sync.WaitGroup
	hits := make([]bool, callers)
	vals := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.Do(context.Background(), k, false, func() (any, int64, error) {
				computes.Add(1)
				<-gate // hold the flight open so everyone piles on
				return "computed", 8, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], hits[i] = v, hit
		}(i)
	}
	// Let the goroutines reach the flight, then release the one compute.
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", n)
	}
	var joiners int
	for i := range vals {
		if vals[i].(string) != "computed" {
			t.Fatalf("caller %d got %v", i, vals[i])
		}
		if hits[i] {
			joiners++
		}
	}
	if joiners != callers-1 {
		t.Fatalf("%d joiners reported hits, want %d", joiners, callers-1)
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("successful Do did not fill the cache")
	}
}

func TestDoErrorDoesNotFill(t *testing.T) {
	c := New(Config{})
	k := key(9)
	boom := errors.New("boom")
	_, hit, err := c.Do(context.Background(), k, false, func() (any, int64, error) { return nil, 0, boom })
	if !errors.Is(err, boom) || hit {
		t.Fatalf("got hit=%v err=%v", hit, err)
	}
	if c.Len() != 0 {
		t.Fatal("failed compute filled the cache")
	}
	// The flight must be gone: a second Do computes again.
	v, hit, err := c.Do(context.Background(), k, false, func() (any, int64, error) { return "ok", 2, nil })
	if err != nil || hit || v.(string) != "ok" {
		t.Fatalf("retry after error: v=%v hit=%v err=%v", v, hit, err)
	}
}

func TestDoPanicReleasesJoiners(t *testing.T) {
	c := New(Config{})
	k := key(11)
	entered := make(chan struct{})
	var joinErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-entered
		_, _, joinErr = c.Do(context.Background(), k, false, func() (any, int64, error) { return "fresh", 5, nil })
	}()

	// The panic is contained on the flight goroutine: the starter gets a
	// *PanicError carrying the panic value, it does not unwind into Do.
	_, _, err := c.Do(context.Background(), k, false, func() (any, int64, error) {
		close(entered) // joiner races in while (or after) this flight dies
		panic("compute died")
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "compute died" || len(pe.Stack) == 0 {
		t.Fatalf("starter got %v, want *PanicError carrying the panic value and stack", err)
	}
	wg.Wait()
	// The joiner either joined the panicked flight (error) or started its
	// own compute after cleanup (success) — it must not hang, and the
	// cache must not hold a poisoned entry from the panicked flight.
	if joinErr == nil {
		if v, ok := c.Get(k); !ok || v.(string) != "fresh" {
			t.Fatalf("joiner recomputed but cache holds %v/%v", v, ok)
		}
	} else if c.Len() != 0 {
		t.Fatal("panicked flight filled the cache")
	}
}

// TestDoNilValueIsNotAPanic: completion is tracked explicitly, so a
// compute legitimately returning (nil, nil) settles the flight with a nil
// value for every waiter instead of a phantom panic error.
func TestDoNilValueIsNotAPanic(t *testing.T) {
	c := New(Config{})
	k := key(13)
	gate := make(chan struct{})
	var joinV any
	var joinErr error
	var joinHit bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-gate
		joinV, joinHit, joinErr = c.Do(context.Background(), k, false, func() (any, int64, error) {
			t.Error("joiner ran its own compute")
			return nil, 0, nil
		})
	}()
	v, hit, err := c.Do(context.Background(), k, false, func() (any, int64, error) {
		close(gate)
		return nil, 1, nil // legitimate nil value
	})
	wg.Wait()
	if err != nil || hit || v != nil {
		t.Fatalf("starter: v=%v hit=%v err=%v, want nil/false/nil", v, hit, err)
	}
	if joinErr != nil || joinV != nil {
		t.Fatalf("joiner: v=%v hit=%v err=%v, want nil value without error", joinV, joinHit, joinErr)
	}
	if c.Len() != 1 {
		t.Fatal("nil-valued success did not fill the cache")
	}
}

// TestDoWaiterHonorsContext: a waiter whose own context expires leaves
// promptly with ctx.Err() while the shared flight runs on, completes, and
// fills the cache for later requests.
func TestDoWaiterHonorsContext(t *testing.T) {
	c := New(Config{})
	k := key(15)
	release := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var v any
	var err error
	go func() {
		defer wg.Done()
		v, _, err = c.Do(ctx, k, false, func() (any, int64, error) {
			cancel() // the starter's context dies mid-compute
			<-release
			return "survived", 8, nil
		})
	}()
	wg.Wait()
	if !errors.Is(err, context.Canceled) || v != nil {
		t.Fatalf("canceled waiter got v=%v err=%v, want context.Canceled", v, err)
	}
	// The flight is still running (or just settled): release it. A fresh
	// Do either joins the live flight or hits the filled entry — the
	// abandoned compute's result must not be lost, and compute must not
	// re-run.
	close(release)
	got, _, err := c.Do(context.Background(), k, false, func() (any, int64, error) {
		t.Error("flight result lost; compute re-ran")
		return nil, 0, nil
	})
	if err != nil || got.(string) != "survived" {
		t.Fatalf("after abandoned flight: v=%v err=%v, want survived", got, err)
	}
}

func TestDoRefreshOverwrites(t *testing.T) {
	c := New(Config{})
	k := key(3)
	c.Put(k, "stale", 5)
	v, hit, err := c.Do(context.Background(), k, true, func() (any, int64, error) { return "fresh", 5, nil })
	if err != nil || hit || v.(string) != "fresh" {
		t.Fatalf("refresh: v=%v hit=%v err=%v", v, hit, err)
	}
	if got, _ := c.Get(k); got.(string) != "fresh" {
		t.Fatalf("entry not overwritten: %v", got)
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
// test for the torn-read bug: Get/Peek/Do must copy the entry's value out
// while still holding the shard lock, because Put's replace branch
// mutates it in place.
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
				switch w % 4 {
				case 0:
					c.Put(k, fmt.Sprintf("v%d/%d", w, i), int64(8+i%5))
				case 1:
					if v, ok := c.Get(k); ok {
						_ = v.(string) // a torn read would fail this assertion
					}
				case 2:
					if v, ok := c.Peek(k); ok {
						_ = v.(string)
					}
				default:
					v, _, err := c.Do(context.Background(), k, false, func() (any, int64, error) {
						return "computed", 8, nil
					})
					if err == nil {
						_ = v.(string)
					}
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
				switch i % 3 {
				case 0:
					c.Put(k, i, 64)
				case 1:
					c.Get(k)
				default:
					c.Do(context.Background(), k, false, func() (any, int64, error) {
						return fmt.Sprintf("%d/%d", w, i), 64, nil
					})
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Bytes() > 4096 {
		t.Fatalf("budget exceeded under concurrency: %d", c.Bytes())
	}
}
