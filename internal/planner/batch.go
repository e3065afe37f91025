package planner

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"clockroute/internal/core"
	"clockroute/internal/engine"
	"clockroute/internal/geom"
)

// netKey canonically identifies one net's routing problem: every NetSpec
// field that determines the result. The name is deliberately excluded —
// two specs with equal keys route to byte-identical results, whatever they
// are called — which is what lets a batch route each distinct problem once.
type netKey struct {
	src, dst     geom.Point
	srcPS, dstPS float64
	widths       string
}

// specKey builds the canonical key for a spec. The width ladder is order-
// sensitive (the planner's best-result tie-break prefers earlier widths
// only through their values, but routing order is part of the observable
// effort), so it is encoded positionally rather than sorted.
func specKey(s NetSpec) netKey {
	k := netKey{src: s.Src, dst: s.Dst, srcPS: s.SrcPeriodPS, dstPS: s.DstPeriodPS}
	if len(s.WireWidths) > 0 {
		var b []byte
		for _, w := range s.WireWidths {
			b = strconv.AppendFloat(b, w, 'g', -1, 64)
			b = append(b, ',')
		}
		k.widths = string(b)
	}
	return k
}

// netFlight is one in-flight (or finished) canonical problem: the first
// net to claim the key computes, everyone else waits on done and copies.
type netFlight struct {
	done      chan struct{}
	res       NetResult
	shareable bool
}

// batchState is the cross-net reuse state of one plan: the single-flight
// table that memoizes whole results for canonically equal nets.
type batchState struct {
	mu      sync.Mutex
	flights map[netKey]*netFlight
}

// route runs compute for spec, memoized per canonical problem. The first
// net to claim a key is the leader; its result is published to every
// follower only when it is a clean first-attempt success (no error, no
// contained panic, no retry) — anything less is not trusted to stand in
// for an independent run, and each follower recomputes for itself. The
// copied result keeps the leader's Path, stats, and timings verbatim (they
// are what an independent run would have produced) with only the Spec
// swapped; Elapsed records the follower's own wall time, which is the
// wait, so batch accounting still sums to the wall clock.
//
// The leader publishes through a deferred close so a panic unwinding out
// of compute (contained one frame up, in the engine's recover boundary)
// can never strand followers on the channel; the flight is then simply
// not shareable.
func (bs *batchState) route(spec NetSpec, compute func() NetResult) NetResult {
	key := specKey(spec)
	bs.mu.Lock()
	fl := bs.flights[key]
	if fl == nil {
		fl = &netFlight{done: make(chan struct{})}
		bs.flights[key] = fl
		bs.mu.Unlock()
		defer close(fl.done)
		fl.res = compute()
		fl.shareable = fl.res.Err == nil && !fl.res.Panicked && !fl.res.Retried
		return fl.res
	}
	bs.mu.Unlock()
	start := time.Now()
	<-fl.done
	if !fl.shareable {
		return compute()
	}
	out := fl.res
	out.Spec = spec
	out.Elapsed = time.Since(start)
	return out
}

// RunStream routes nets as they arrive on specs, calling emit for every
// finished net in completion order, and returns the batch statistics once
// specs is closed and every in-flight net has finished. It is the
// planner's one batch engine: RunParallel is RunStream over a slice, and
// the NDJSON /v1/plan transport feeds it net by net, so a large plan
// needs neither the full spec list nor the full result list in memory.
//
// emit is serialized — at most one call at a time — and must not block
// longer than it takes to encode the result: every worker's next net
// waits behind it. Per-net failures are reported in the emitted results;
// the stats report Workers as the pool a buffered run of the same net
// count uses.
//
// Precondition: every net has a non-empty name that no other net of the
// stream uses. RunStream does not check it; its callers already have:
// RunParallel validates its slice, the service checks each name as it
// decodes the net, and the coordinator's degraded path streams one net
// at a time.
//
// Cross-net reuse: whole-result memoization for canonically equal specs.
// It is plan-scoped, so nothing leaks between plans, and preserves
// byte-identical results. PlanNetsExclusive never comes through here — it
// mutates its grid between nets, which invalidates the memo's premise.
//
// When the Options carry a Tracer and the pool has more than one worker,
// the shared tracer is fanned in through core.SynchronizedTracer so
// concurrent searches never race on it; the merged observation interleaves
// nets in completion order. When the Options carry a telemetry sink, every
// net's span events (see traceNet) and its searches' events are emitted
// labeled with the net name and worker index.
func (pl *Planner) RunStream(ctx context.Context, workers int, specs <-chan NetSpec, emit func(NetResult)) PlanStats {
	opts := pl.opts
	pool := workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	if pool > 1 {
		opts.Trace = core.SynchronizedTracer(opts.Trace)
	}
	bs := &batchState{flights: make(map[netKey]*netFlight)}

	start := time.Now()
	stats := PlanStats{}
	// StreamRecover is the second containment line behind the search
	// wrappers' own recovery: a panic escaping routeNet (verification,
	// telemetry, a bug in this package) fails that one net instead of
	// crashing the whole batch on a bare worker goroutine.
	received := engine.StreamRecover(ctx, pool, specs,
		func(ctx context.Context, worker int, spec NetSpec) NetResult {
			route := func(ctx context.Context, opts core.Options) NetResult {
				return bs.route(spec, func() NetResult { return pl.routeNet(ctx, spec, opts) })
			}
			if opts.Telemetry == nil {
				return route(ctx, opts)
			}
			return pl.traceNet(ctx, spec, opts, worker, route)
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
