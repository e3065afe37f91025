package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d (negative deltas are ignored).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Inc increments by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (either sign).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Max raises the gauge to v if v is larger (a high-water mark).
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper edges: observation v lands in the first bucket with v <= bound,
// or in the overflow bucket past the last bound. Observation is lock-free
// (one atomic add per sample plus the sum accumulation).
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last = overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given ascending bucket bounds.
// It panics on unsorted or empty bounds — bucket layout is a programming
// decision, not runtime input.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram bounds must ascend")
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// ExpBuckets returns n bounds growing geometrically from start by factor,
// e.g. ExpBuckets(1, 2, 10) = 1, 2, 4, ... 512.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: v <= bound bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketCount returns the count of bucket i (len(Bounds()) = overflow).
func (h *Histogram) BucketCount(i int) int64 { return h.counts[i].Load() }

// Bounds returns the bucket upper edges.
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// Metrics is the registry of the routing system's operational counters. It
// doubles as a Sink: fed the event stream, it aggregates searches, effort
// counters, per-net latency, and worker busy-time, so one instance can
// serve as both the process-wide registry (see Default) and a per-run
// scoreboard.
type Metrics struct {
	// Search-level counters (search_end events).
	Searches     Counter // searches completed (any outcome)
	SearchErrors Counter // searches ending in error or abort
	Configs      Counter // candidates popped across all searches
	Pushed       Counter // candidates pushed
	Pruned       Counter // candidates rejected as dominated
	BoundPruned  Counter // candidates cut by admissible search bounds
	ProbeConfigs Counter // incumbent-probe effort (excluded from Configs)
	Waves        Counter // wavefronts processed
	MaxQSize     Gauge   // largest per-search peak queue size seen
	// Net-level counters (net_* events).
	NetsInFlight Gauge
	NetsDone     Counter
	NetsFailed   Counter
	// NetLatencyMS buckets each net's wall time in milliseconds.
	NetLatencyMS *Histogram
	// WorkerBusyNS accumulates time workers spent routing (net_end spans),
	// the numerator of pool utilization.
	WorkerBusyNS Counter
	// Service-level counters, incremented by the HTTP front end
	// (internal/server) rather than the event stream.
	Requests      Counter // requests received across all endpoints
	RequestErrors Counter // non-2xx responses other than sheds
	Shed          Counter // requests refused by admission control (429)
	RequestAborts Counter // requests whose search was aborted (504/503)
	// RequestPanics counts handler panics contained by the server's
	// recovery middleware (each one a 500, never a crash).
	RequestPanics Counter
	// SlowRequests counts requests whose wall time breached the flight
	// recorder's SLO (see FlightRecorder).
	SlowRequests Counter
	// ScratchQuarantines counts pooled search scratches discarded after a
	// contained panic instead of being returned to the pool (core.Scratch
	// quarantine rule). Only the Default registry receives these — the
	// scratch pool is process-global, so per-run registries do not.
	ScratchQuarantines Counter
	// Result-cache counters, maintained by internal/resultcache: lookups
	// served from the content-addressed cache (hits skip the search kernel
	// entirely), fills after a fresh search (misses), entries evicted by
	// the byte budget, and the live byte footprint.
	CacheHits      Counter
	CacheMisses    Counter
	CacheEvictions Counter
	CacheBytes     Gauge
	// Coordinator counters, maintained by internal/coordinator: nets
	// re-routed off a failed backend exchange, and nets routed in-process
	// because no healthy backend would take them (the bottom of the
	// degradation ladder). Per-backend circuit and latency series live on
	// the Coordinator itself and are rendered through its WritePrometheus
	// extra writer.
	CoordFailovers     Counter
	CoordDegradedLocal Counter
	// RequestLatencyMS buckets each request's wall time in milliseconds.
	RequestLatencyMS *Histogram
}

// NewMetrics builds a registry with the default latency bucket layout
// (1 ms … ~16 s, doubling).
func NewMetrics() *Metrics {
	return &Metrics{
		NetLatencyMS:     NewHistogram(ExpBuckets(1, 2, 15)...),
		RequestLatencyMS: NewHistogram(ExpBuckets(1, 2, 15)...),
	}
}

// Emit implements Sink, folding the event stream into the counters.
func (m *Metrics) Emit(e Event) {
	switch e.Kind {
	case EventSearchEnd:
		m.Searches.Inc()
		if e.Err != "" {
			m.SearchErrors.Inc()
		}
		m.Configs.Add(int64(e.Configs))
		m.Pushed.Add(int64(e.Pushed))
		m.Pruned.Add(int64(e.Pruned))
		m.BoundPruned.Add(int64(e.BoundPruned))
		m.ProbeConfigs.Add(int64(e.ProbeConfigs))
		m.Waves.Add(int64(e.Waves))
		m.MaxQSize.Max(int64(e.MaxQSize))
	case EventNetStart:
		m.NetsInFlight.Add(1)
	case EventNetEnd:
		m.NetsInFlight.Add(-1)
		if e.Err != "" {
			m.NetsFailed.Inc()
		} else {
			m.NetsDone.Inc()
		}
		m.WorkerBusyNS.Add(e.ElapsedNS)
		if m.NetLatencyMS != nil {
			m.NetLatencyMS.Observe(float64(e.ElapsedNS) / float64(time.Millisecond))
		}
	}
}

var (
	defaultMetrics     *Metrics
	defaultMetricsOnce sync.Once
)

// Default returns the process-wide registry, created on first use.
func Default() *Metrics {
	defaultMetricsOnce.Do(func() { defaultMetrics = NewMetrics() })
	return defaultMetrics
}
