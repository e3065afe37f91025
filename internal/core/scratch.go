package core

import (
	"math"
	"sync"
	"sync/atomic"

	"clockroute/internal/candidate"
	"clockroute/internal/pqueue"
	"clockroute/internal/telemetry"
)

// Scratch bundles the working memory of one search: the candidate arena,
// the Pareto stores, the per-node marking sets, and the wave queues. The
// algorithms are invoked thousands of times per planning batch, each run
// formerly re-making NumNodes-sized stores and marking arrays and heap-
// allocating one candidate per expansion; a Scratch retains all of that hot
// memory so a pooled instance makes a steady-state search allocate almost
// nothing.
//
// Ownership: a Scratch serves exactly one search at a time. getScratch
// hands one out (from a sync.Pool, so planner workers and the service
// reuse instances across nets) and Release returns it; the exported
// algorithm entry points do both, which is how clockroute.Route, the
// planner's worker pool, internal/server and the latch router all share
// the pool without any of them managing lifetimes explicitly. Everything
// a search returns (Result, Path, Stats) is copied out of the scratch
// before Release, so results never alias pooled memory.
type Scratch struct {
	// Arena allocates the search's candidates; Release-to-Get recycles
	// every slab. See the candidate.Arena lifetime rule: nothing built
	// from arena candidates may outlive the search without copying.
	Arena candidate.Arena

	// Q is the current wave's heap (FastPath's only queue).
	Q pqueue.Heap[*candidate.Candidate]
	// QStar is GALS's future-wave heap, keyed by accumulated latency.
	QStar pqueue.Heap[*candidate.Candidate]
	// Buf is the shared candidate buffer: the next-wave accumulation list
	// of RBP and the latch router, and GALS's wavefront extraction buffer.
	Buf []*candidate.Candidate

	stores [2]*candidate.Store
	flags  [3]nodeFlags

	// bounds holds the pooled A*-pruning state (BFS distance field,
	// segment tables, probe window); see prepBounds in bounds.go.
	bounds Bounds
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// getScratch returns a search-ready Scratch from the pool: arena recycled,
// queues emptied, buffers truncated (each search installs its heaps' tie
// order). Pair it with Release.
func getScratch() *Scratch {
	sc := scratchPool.Get().(*Scratch)
	sc.resetSearchState()
	return sc
}

// resetSearchState rewinds the search structures a search mutates —
// arena, heaps, shared buffer — so the next search on the scratch (the
// exact search after the one-path probe, or the latch router's next
// cycle count) starts clean. A feasible arrival returns mid-drain, so
// heaps may be non-empty. Pareto stores and flag sets need no rewind
// here: every search re-preps them (epoch bump) before use.
func (s *Scratch) resetSearchState() {
	s.Arena.Reset()
	s.Q.Reset()
	s.QStar.Reset()
	s.Buf = s.Buf[:0]
}

// Release returns sc to the pool. The caller must not touch sc — or any
// candidate allocated from its arena — afterwards.
//
// Never Release a scratch whose search panicked: a panic mid-wave can
// leave the arena, heaps, or epoch stamps in a state that violates their
// invariants, and a corrupt pooled scratch would poison an unrelated
// later search. Quarantine it instead — the recovery boundaries in the
// exported search wrappers do exactly that.
func (s *Scratch) Release() {
	scratchPool.Put(s)
}

// quarantined counts scratches dropped instead of pooled after a
// contained panic.
var quarantined atomic.Int64

// Quarantine discards s instead of returning it to the pool: the caller's
// search panicked, so none of s's invariants can be trusted and the memory
// must not be recycled into another search. The scratch is simply left for
// the garbage collector; the pool replaces it with a fresh zero-value
// instance on demand. Counted both process-locally (ScratchQuarantines)
// and on the default telemetry registry.
func (s *Scratch) Quarantine() {
	quarantined.Add(1)
	telemetry.Default().ScratchQuarantines.Inc()
}

// ScratchQuarantines reports how many pooled scratches have been
// quarantined process-wide since start.
func ScratchQuarantines() int64 { return quarantined.Load() }

// containSearchPanic is the deferred recovery boundary shared by every
// exported search wrapper (FastPath, RBP, GALS, and LatchSearch): a panic
// anywhere in the search body is classified as an *InternalError with the
// panicking stack, and the borrowed scratch is quarantined — never
// released — because its invariants cannot be trusted after a mid-wave
// panic. On the normal path it releases the scratch, and a failed search
// returns no result (the kernels hand one back with ErrNoPath so a probe
// can count its effort).
//
// Deferred functions run before the stack unwinds, so the stack captured
// here still shows the panicking frames.
func containSearchPanic(sc *Scratch, res **Result, err *error) {
	if r := recover(); r != nil {
		sc.Quarantine()
		*res, *err = nil, NewInternalError(r, nil)
		return
	}
	sc.Release()
	if *err != nil {
		*res = nil
	}
}

// prepStore returns the i-th reusable Pareto store (i in [0, 2)), prepared
// for a fresh search over n nodes in the given dominance mode.
func (s *Scratch) prepStore(i, n int, tri bool) *candidate.Store {
	if s.stores[i] == nil {
		s.stores[i] = candidate.NewStore(0)
	}
	s.stores[i].Reuse(n, tri)
	return s.stores[i]
}

// prepFlags returns the i-th reusable node-marking set (i in [0, 3)),
// cleared and covering n nodes.
func (s *Scratch) prepFlags(i, n int) *nodeFlags {
	s.flags[i].reuse(n)
	return &s.flags[i]
}

// Rebases sums the rebase counts of both queues the scratch owns since it
// was created (see pqueue.Heap.Rebases). The kernels' keys never fall
// below a queue's floor, so it stays zero.
func (s *Scratch) Rebases() int {
	return s.Q.Rebases() + s.QStar.Rebases()
}

// nodeFlags is a reusable per-node boolean set with O(1) clear via epoch
// stamps — the pooled replacement for the per-search make([]bool, NumNodes)
// marking arrays (RBP's A(v), GALS's A_z(v) and F(v)).
type nodeFlags struct {
	stamp []int32
	cur   int32
}

// reuse clears the set and grows it to cover nodes [0, n).
func (f *nodeFlags) reuse(n int) {
	if len(f.stamp) < n {
		f.stamp = append(f.stamp, make([]int32, n-len(f.stamp))...)
	}
	if f.cur == math.MaxInt32 {
		clear(f.stamp)
		f.cur = 0
	}
	f.cur++
}

// Has reports whether node v is marked.
func (f *nodeFlags) Has(v int) bool { return f.stamp[v] == f.cur }

// Set marks node v.
func (f *nodeFlags) Set(v int) { f.stamp[v] = f.cur }
