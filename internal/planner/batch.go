package planner

import (
	"context"
	"fmt"
	"time"

	"clockroute/internal/core"
	"clockroute/internal/engine"
)

// RunStream routes nets as they arrive on specs, calling emit for every
// finished net in completion order, and returns the batch statistics once
// specs is closed and every in-flight net has finished. It is the
// planner's one batch engine: RunParallel and PlanNetsExclusive are
// RunStream over a slice, and the NDJSON /v1/plan transport feeds it net
// by net, so a large plan needs neither the full spec list nor the full
// result list in memory.
//
// emit is serialized — at most one call at a time — and must not block
// longer than it takes to encode the result: every worker's next net
// waits behind it. Per-net failures are reported in the emitted results;
// the stats report Workers as the pool a buffered run of the same net
// count uses.
//
// Every net is routed: RunStream keeps no result once it is emitted, so
// a canonical duplicate is searched again. An answer is reused only
// through the service's result cache, keyed by api.ProblemHash.
//
// Precondition: every net has a non-empty name that no other net of the
// stream uses. RunStream does not check it; its callers already have:
// RunParallel and PlanNetsExclusive validate their slice, the service
// checks each name as it decodes the net, and the coordinator's degraded
// path streams one net at a time.
//
// A plan reports through Options.Telemetry: every net's span events (see
// traceNet) and its searches' events are emitted labeled with the net name
// and worker index. RunStream hands its searches no Tracer, which observes
// one search at a time (core.Tracer); the planner's Options.Trace is
// ignored here.
func (pl *Planner) RunStream(ctx context.Context, workers int, specs <-chan NetSpec, emit func(NetResult)) PlanStats {
	opts := pl.opts
	opts.Trace = nil

	start := time.Now()
	stats := PlanStats{}
	// StreamRecover is the second containment line behind the search
	// wrappers' own recovery: a panic escaping routeNet (verification,
	// telemetry, a bug in this package) fails that one net instead of
	// crashing the whole batch on a bare worker goroutine.
	received := engine.StreamRecover(ctx, workers, specs,
		func(ctx context.Context, worker int, spec NetSpec) NetResult {
			if opts.Telemetry == nil {
				return pl.routeNet(ctx, spec, opts)
			}
			return pl.traceNet(ctx, spec, opts, worker)
		},
		func(res NetResult) {
			stats.add(&res) // under StreamRecover's emit mutex
			emit(res)
		},
		func(spec NetSpec, v any, stack []byte) NetResult {
			return NetResult{
				Spec:     spec,
				Panicked: true,
				Err:      fmt.Errorf("planner: net %q: %w", spec.Name, core.NewInternalError(v, stack)),
			}
		})
	if received == 0 {
		// An empty stream reports the zero stats an empty buffered batch
		// would: no nets means no pool and no meaningful worker count.
		return PlanStats{}
	}
	stats.Workers = engine.Workers(workers, received)
	stats.Elapsed = time.Since(start)
	return stats
}
