package coordinator

import (
	"fmt"
	"io"
	"time"

	"clockroute/internal/telemetry"
)

// WritePrometheus renders the coordinator's per-backend series in
// Prometheus text format (0.0.4): circuit state as an up-gauge,
// consecutive failures, and the per-net round-trip latency histogram —
// every series labeled with the backend URL. Designed to be passed as an
// extra writer to telemetry.WritePrometheus, after the registry-level
// coord_failovers/coord_degraded_local counters.
func (c *Coordinator) WritePrometheus(w io.Writer) {
	now := time.Now()
	fmt.Fprintf(w, "# HELP clockroute_coord_backend_up Backend circuit admits traffic (1 closed, 0 open or half-open).\n# TYPE clockroute_coord_backend_up gauge\n")
	for _, be := range c.backends {
		up := 0
		if be.br.State(now) == StateClosed {
			up = 1
		}
		fmt.Fprintf(w, "clockroute_coord_backend_up{backend=%q} %d\n", be.url, up)
	}
	fmt.Fprintf(w, "# HELP clockroute_coord_backend_failures Consecutive exchange failures per backend.\n# TYPE clockroute_coord_backend_failures gauge\n")
	for _, be := range c.backends {
		fmt.Fprintf(w, "clockroute_coord_backend_failures{backend=%q} %d\n", be.url, be.br.Failures())
	}
	fmt.Fprintf(w, "# HELP clockroute_coord_backend_latency_ms Per-net round trip through each backend in milliseconds.\n# TYPE clockroute_coord_backend_latency_ms histogram\n")
	for _, be := range c.backends {
		telemetry.WriteHistogramSamples(w, "clockroute_coord_backend_latency_ms", "backend", be.url, be.lat)
	}
}
