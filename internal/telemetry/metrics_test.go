package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketMath pins the bucket rule: v lands in the first
// bucket with v <= bound; past the last bound it lands in overflow.
func TestHistogramBucketMath(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 3.0, 8.0, 9.0, 100} {
		h.Observe(v)
	}
	// Buckets: <=1: {0.5, 1.0}; <=2: {1.5, 2.0}; <=4: {3.0}; <=8: {8.0};
	// overflow: {9.0, 100}.
	want := []int64{2, 2, 1, 1, 2}
	for i, w := range want {
		if got := h.BucketCount(i); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if sum := h.Sum(); math.Abs(sum-125) > 1e-9 {
		t.Errorf("sum = %g, want 125", sum)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 10)...)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 700))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	// Each goroutine observes 0..699 once, then 0..299 again.
	var want float64
	for i := 0; i < 1000; i++ {
		want += float64(i % 700)
	}
	want *= 8
	if math.Abs(h.Sum()-want) > 1e-6*want {
		t.Fatalf("sum = %g, want %g (CAS accumulation lost updates)", h.Sum(), want)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestNewHistogramRejectsBadBounds(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":    {},
		"unsorted": {4, 2, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds must panic", name)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestGaugeMax(t *testing.T) {
	var g Gauge
	g.Max(5)
	g.Max(3)
	g.Max(9)
	if g.Value() != 9 {
		t.Fatalf("gauge high-water = %d, want 9", g.Value())
	}
}

// TestMetricsFromEvents drives a Metrics registry with a small synthetic
// batch and checks every aggregate, including the prune ratio and worker
// busy-time.
func TestMetricsFromEvents(t *testing.T) {
	m := NewMetrics()
	emit := func(e Event) { m.Emit(e) }

	emit(Event{Kind: EventNetStart, Net: "a"})
	emit(Event{Kind: EventSearchEnd, Configs: 100, Pushed: 60, Pruned: 40, Waves: 3, MaxQSize: 17})
	emit(Event{Kind: EventNetEnd, Net: "a", ElapsedNS: int64(3 * time.Millisecond)})
	emit(Event{Kind: EventNetStart, Net: "b"})
	emit(Event{Kind: EventSearchEnd, Configs: 50, Pushed: 20, Pruned: 20, Waves: 2, MaxQSize: 5, Err: "aborted"})
	emit(Event{Kind: EventNetEnd, Net: "b", ElapsedNS: int64(time.Millisecond), Err: "aborted"})

	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"searches", m.Searches.Value(), 2},
		{"search_errors", m.SearchErrors.Value(), 1},
		{"configs", m.Configs.Value(), 150},
		{"pushed", m.Pushed.Value(), 80},
		{"pruned", m.Pruned.Value(), 60},
		{"waves", m.Waves.Value(), 5},
		{"max_q", m.MaxQSize.Value(), 17},
		{"nets_in_flight", m.NetsInFlight.Value(), 0},
		{"nets_done", m.NetsDone.Value(), 1},
		{"nets_failed", m.NetsFailed.Value(), 1},
		{"worker_busy_ns", m.WorkerBusyNS.Value(), int64(4 * time.Millisecond)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if m.NetLatencyMS.Count() != 2 {
		t.Errorf("latency histogram holds %d samples, want 2", m.NetLatencyMS.Count())
	}
}

func TestServiceCounters(t *testing.T) {
	m := NewMetrics()
	m.Requests.Add(5)
	m.Shed.Inc()
	m.RequestAborts.Inc()
	m.RequestErrors.Add(2)
	m.RequestLatencyMS.Observe(3)
	m.RequestLatencyMS.Observe(700)

	for name, c := range map[string]struct{ got, want int64 }{
		"requests":       {m.Requests.Value(), 5},
		"shed":           {m.Shed.Value(), 1},
		"request_aborts": {m.RequestAborts.Value(), 1},
		"request_errors": {m.RequestErrors.Value(), 2},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", name, c.got, c.want)
		}
	}
	if m.RequestLatencyMS.Count() != 2 {
		t.Errorf("request latency histogram holds %d samples, want 2", m.RequestLatencyMS.Count())
	}
}

func TestDefaultIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default must return one process-wide registry")
	}
}
