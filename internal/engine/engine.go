// Package engine is the concurrent execution substrate for batch routing:
// a bounded worker pool that maps a task over values arriving on a channel,
// containing each task's panics and delivering results as they finish.
//
// The pool itself promises no result order; callers that need one (the
// planner's RunParallel puts results back in spec order) place results by
// a key of their own. Cancellation is cooperative — the context is handed
// to every task, and the routing tasks built on core.Route abort
// themselves when it fires — so a canceled pool still gives every value a
// (fast-failing) result rather than stranding the sender.
package engine

import (
	"context"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"clockroute/internal/faultpoint"
)

// Workers resolves a requested worker count: values <= 0 select
// GOMAXPROCS, and the count is clamped to n so no goroutine starts idle.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// StreamRecover maps fn over values arriving on `in` across up to `workers`
// goroutines (<= 0 selects GOMAXPROCS), delivering each result to `out` as
// soon as it is ready. Tasks are claimed by receiving from the channel, so
// long tasks do not convoy behind short ones, and results arrive in
// completion order (not submission order). fn receives the claiming
// worker's index (0 <= worker < workers): telemetry uses it to attribute
// per-net spans to pool slots and to measure worker utilization.
//
// A panicking task is recovered on its worker and replaced by
// onPanic(v, r, stack) instead of killing the pool (a panic on a bare
// worker goroutine would kill the whole process — no caller can recover
// it); the surviving tasks are unaffected. The planner routes every batch
// through this boundary, so a panic that escapes the search layer's own
// containment (e.g. in result verification or telemetry) still degrades
// to a single failed net. The engine.task failpoint fires before each
// task runs, letting the chaos suite drive this boundary directly.
//
// out is called under an internal mutex — implementations may write to a
// shared encoder without their own locking — and never concurrently with a
// task's own fn on the same value. StreamRecover returns the number of
// values consumed, after every in-flight task has delivered its result; the
// caller signals completion by closing `in`. fn observes ctx and is
// expected to fail fast once it fires, so a canceled stream still drains
// the channel.
func StreamRecover[T, R any](ctx context.Context, workers int, in <-chan T, fn func(ctx context.Context, worker int, v T) R, out func(R), onPanic func(v T, r any, stack []byte) R) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	var mu sync.Mutex
	var consumed atomic.Int64
	run := func(ctx context.Context, worker int, v T) (r R) {
		defer func() {
			if p := recover(); p != nil {
				r = onPanic(v, p, debug.Stack())
			}
		}()
		faultpoint.Must("engine.task")
		return fn(ctx, worker, v)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			// Adopt the pprof labels riding ctx (e.g. the server's
			// request_id). A new goroutine inherits its spawner's label
			// set, but ctx may carry labels the spawning goroutine never
			// applied to itself, so they are installed explicitly: CPU
			// profiles then attribute worker time to the request that
			// scheduled it.
			pprof.SetGoroutineLabels(ctx)
			for v := range in {
				consumed.Add(1)
				r := run(ctx, worker, v)
				mu.Lock()
				out(r)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return int(consumed.Load())
}
