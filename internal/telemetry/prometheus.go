package telemetry

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"strconv"
)

// Prometheus text exposition (format 0.0.4) for the Metrics registry.
// Naming follows the Prometheus conventions: everything is prefixed
// clockroute_, counters carry a _total suffix, histograms expand to
// _bucket{le="…"} series with cumulative counts, a +Inf bucket, and
// _sum/_count. The renderer is read-only over the atomic registry, so a
// scrape never contends with the search path beyond individual atomic
// loads.

// PrometheusContentType is the Content-Type of the exposition.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

func promCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func promGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatFloat(v))
}

// formatFloat renders a sample value the Prometheus parser accepts
// (shortest round-trippable form; +Inf/-Inf/NaN in their spelled forms).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promHistogram renders h as a full histogram family: its HELP and TYPE
// lines, then its samples.
func promHistogram(w io.Writer, name, help string, h *Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	WriteHistogramSamples(w, name, "", "", h)
}

// WriteHistogramSamples writes h's samples under name: cumulative
// _bucket{le="bound"} series, the mandatory le="+Inf" bucket equal to
// _count, then _sum and _count. A non-empty label puts the pair
// label="value" on every sample, ahead of le, so one family can hold a
// histogram per label value (the coordinator's per-backend latencies).
func WriteHistogramSamples(w io.Writer, name, label, value string, h *Histogram) {
	var pair, set string // `label="value",` inside a bucket's braces; `{label="value"}` on _sum and _count
	if label != "" {
		pair = fmt.Sprintf("%s=%q,", label, value)
		set = "{" + pair[:len(pair)-1] + "}"
	}
	bounds := h.Bounds()
	var cum int64
	for i, b := range bounds {
		cum += h.BucketCount(i)
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, pair, formatFloat(b), cum)
	}
	cum += h.BucketCount(len(bounds))
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, pair, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, set, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, set, h.Count())
}

// WritePrometheus renders the registry in Prometheus text format,
// followed by the process runtime series and any extra per-subsystem
// writers (the server passes the result cache's).
func WritePrometheus(w io.Writer, m *Metrics, extras ...func(io.Writer)) {
	if m != nil {
		promCounter(w, "clockroute_searches_total", "Searches completed (any outcome).", m.Searches.Value())
		promCounter(w, "clockroute_search_errors_total", "Searches ending in error or abort.", m.SearchErrors.Value())
		promCounter(w, "clockroute_configs_total", "Candidate configurations popped across all searches.", m.Configs.Value())
		promCounter(w, "clockroute_pushed_total", "Candidates pushed into wave queues.", m.Pushed.Value())
		promCounter(w, "clockroute_pruned_total", "Candidates rejected as dominated.", m.Pruned.Value())
		promCounter(w, "clockroute_waves_total", "Wavefronts processed.", m.Waves.Value())
		promGauge(w, "clockroute_max_q_size", "Largest per-search peak queue size seen.", float64(m.MaxQSize.Value()))
		promGauge(w, "clockroute_nets_in_flight", "Nets currently being routed.", float64(m.NetsInFlight.Value()))
		promCounter(w, "clockroute_nets_done_total", "Nets routed successfully.", m.NetsDone.Value())
		promCounter(w, "clockroute_nets_failed_total", "Nets ending in error.", m.NetsFailed.Value())
		promCounter(w, "clockroute_worker_busy_ns_total", "Nanoseconds workers spent routing.", m.WorkerBusyNS.Value())
		promCounter(w, "clockroute_requests_total", "HTTP requests received.", m.Requests.Value())
		promCounter(w, "clockroute_request_errors_total", "Non-2xx responses other than sheds.", m.RequestErrors.Value())
		promCounter(w, "clockroute_shed_total", "Requests refused by admission control.", m.Shed.Value())
		promCounter(w, "clockroute_request_aborts_total", "Requests whose search was aborted.", m.RequestAborts.Value())
		promCounter(w, "clockroute_request_panics_total", "Handler panics contained by the recovery middleware.", m.RequestPanics.Value())
		promCounter(w, "clockroute_slow_requests_total", "Requests breaching the flight-recorder SLO.", m.SlowRequests.Value())
		promCounter(w, "clockroute_scratch_quarantines_total", "Pooled scratches quarantined after a contained panic.", m.ScratchQuarantines.Value())
		promCounter(w, "clockroute_cache_hits_total", "Result-cache hits.", m.CacheHits.Value())
		promCounter(w, "clockroute_cache_misses_total", "Result-cache misses.", m.CacheMisses.Value())
		promCounter(w, "clockroute_cache_evictions_total", "Result-cache entries evicted by the byte budget.", m.CacheEvictions.Value())
		promGauge(w, "clockroute_cache_bytes", "Result-cache live byte footprint.", float64(m.CacheBytes.Value()))
		promCounter(w, "clockroute_coord_failovers_total", "Nets re-routed off a failed backend exchange.", m.CoordFailovers.Value())
		promCounter(w, "clockroute_coord_degraded_local_total", "Nets routed in-process because no healthy backend would take them.", m.CoordDegradedLocal.Value())
		if m.NetLatencyMS != nil {
			promHistogram(w, "clockroute_net_latency_ms", "Per-net routing wall time in milliseconds.", m.NetLatencyMS)
		}
		if m.RequestLatencyMS != nil {
			promHistogram(w, "clockroute_request_latency_ms", "Per-request wall time in milliseconds.", m.RequestLatencyMS)
		}
	}
	WriteRuntimeMetrics(w)
	for _, extra := range extras {
		if extra != nil {
			extra(w)
		}
	}
}

// runtimeSamples is the fixed runtime/metrics read set; allocating the
// slice per scrape keeps WriteRuntimeMetrics reentrant.
func runtimeSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/pauses:seconds"},
	}
}

// WriteRuntimeMetrics renders process-health series from runtime/metrics:
// live goroutines, heap object bytes, GC cycle count, and the GC pause
// distribution as a Prometheus histogram.
func WriteRuntimeMetrics(w io.Writer) {
	samples := runtimeSamples()
	metrics.Read(samples)
	for _, s := range samples {
		switch s.Name {
		case "/sched/goroutines:goroutines":
			if s.Value.Kind() == metrics.KindUint64 {
				promGauge(w, "clockroute_goroutines", "Live goroutines.", float64(s.Value.Uint64()))
			}
		case "/memory/classes/heap/objects:bytes":
			if s.Value.Kind() == metrics.KindUint64 {
				promGauge(w, "clockroute_heap_bytes", "Bytes of live heap objects.", float64(s.Value.Uint64()))
			}
		case "/gc/cycles/total:gc-cycles":
			if s.Value.Kind() == metrics.KindUint64 {
				promCounter(w, "clockroute_gc_cycles_total", "Completed GC cycles.", int64(s.Value.Uint64()))
			}
		case "/gc/pauses:seconds":
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				promRuntimeHistogram(w, "clockroute_gc_pause_seconds", "Stop-the-world GC pause distribution.", s.Value.Float64Histogram())
			}
		}
	}
}

// promRuntimeHistogram converts a runtime/metrics Float64Histogram (counts
// between consecutive bucket boundaries) into Prometheus cumulative-le
// form. Each runtime bucket [lo, hi) maps to le=hi; the sum is
// approximated with bucket midpoints since the runtime only keeps counts.
func promRuntimeHistogram(w io.Writer, name, help string, h *metrics.Float64Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum, total int64
	var sum float64
	for i, n := range h.Counts {
		total += int64(n)
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := lo + (hi-lo)/2
		if math.IsInf(lo, -1) {
			mid = hi
		} else if math.IsInf(hi, 1) {
			mid = lo
		}
		if n > 0 && !math.IsInf(mid, 0) {
			sum += float64(n) * mid
		}
	}
	for i, n := range h.Counts {
		cum += int64(n)
		hi := h.Buckets[i+1]
		if math.IsInf(hi, 1) {
			break // rendered below as the +Inf bucket
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(hi), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(sum))
	fmt.Fprintf(w, "%s_count %d\n", name, total)
}
