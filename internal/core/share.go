package core

import (
	"sync"

	"clockroute/internal/elmore"
	"clockroute/internal/grid"
)

// ShareCache is a plan-scoped cache of bound artifacts that are pure
// functions of (grid, problem): BFS distance fields per source node and
// ideal-line segment reaches per (model, period). One net's PrepBounds work
// becomes every net's. The incumbent probe is not cached: it runs per
// search on the search's own scratch.
//
// Exactness contract: every cached value is exactly the value the uncached
// code path would recompute — BFS and the segment DP are deterministic —
// so a search that hits the cache returns byte-identical results *and*
// byte-identical stats (ProbeConfigs, BoundPruned, ...) to one that
// recomputes. That is what the sharing on/off differential pins.
//
// Concurrency: all methods are safe for concurrent use by planner workers.
// Concurrent misses on the same key may compute the value redundantly;
// the first store wins and later computations (identical by determinism)
// are discarded.
//
// Lifetime: a ShareCache is bound to one immutable grid. Every lookup
// verifies grid identity and degrades to a miss-and-no-store on mismatch,
// so accidentally reusing a cache across grids is slow, not wrong. Plans
// that mutate the grid between nets (PlanNetsExclusive) must not install
// one.
type ShareCache struct {
	g *grid.Grid

	mu     sync.Mutex
	fields map[int32]*bfsField
	reach  map[reachKey]int
}

// bfsField is one immutable BFS distance field from a fixed origin.
type bfsField struct {
	dist []int32
	maxD int32
}

// reachKey identifies one segmentReach computation. The model pointer
// stands in for the technology and wire width (planner width-ladder models
// are cached per width, so pointers are stable identities within a plan);
// dual distinguishes GALS's FIFO-seeded source scan; maxReach is part of
// the key because the scan's cap is an input to its result.
type reachKey struct {
	m              *elmore.Model
	t              float64
	dual           bool
	closeK, closeR float64
	maxReach       int
}

// NewShareCache returns an empty cache bound to g.
func NewShareCache(g *grid.Grid) *ShareCache {
	return &ShareCache{
		g:      g,
		fields: make(map[int32]*bfsField),
		reach:  make(map[reachKey]int),
	}
}

// owns reports whether the cache was built for g. Nil-safe.
func (sh *ShareCache) owns(g *grid.Grid) bool { return sh != nil && sh.g == g }

// field returns the BFS distance field from p's source, computing and
// publishing it on first use. The returned field is immutable. b supplies
// the pooled BFS worklist; the distance slice itself is freshly allocated
// so it can outlive the scratch (and survive its quarantine).
func (sh *ShareCache) field(p *Problem, b *Bounds) *bfsField {
	key := int32(p.Source)
	sh.mu.Lock()
	f, ok := sh.fields[key]
	sh.mu.Unlock()
	if ok {
		return f
	}
	dist := make([]int32, p.Grid.NumNodes())
	f = &bfsField{dist: dist, maxD: b.bfs(p, p.Source, dist)}
	sh.mu.Lock()
	if prev, ok := sh.fields[key]; ok {
		f = prev // lost the race; contents are identical by determinism
	} else {
		sh.fields[key] = f
	}
	sh.mu.Unlock()
	return f
}

// segmentReachShared answers b.segmentReach through the cache when sh is
// usable for p's grid, else computes directly.
func (b *Bounds) segmentReachShared(sh *ShareCache, p *Problem, m *elmore.Model, T float64, maxReach int, dual bool, closeK, closeMinR float64) int {
	if !sh.owns(p.Grid) {
		return b.segmentReachStart(p, m, T, maxReach, dual, closeK, closeMinR)
	}
	key := reachKey{m, T, dual, closeK, closeMinR, maxReach}
	sh.mu.Lock()
	v, ok := sh.reach[key]
	sh.mu.Unlock()
	if ok {
		return v
	}
	v = b.segmentReachStart(p, m, T, maxReach, dual, closeK, closeMinR)
	sh.mu.Lock()
	sh.reach[key] = v
	sh.mu.Unlock()
	return v
}

// segmentReachStart resolves the dual flag to the FIFO start element and
// runs the segment DP.
func (b *Bounds) segmentReachStart(p *Problem, m *elmore.Model, T float64, maxReach int, dual bool, closeK, closeMinR float64) int {
	if dual {
		fifo := m.Tech().FIFO
		return b.segmentReach(m, T, maxReach, &fifo, closeK, closeMinR)
	}
	return b.segmentReach(m, T, maxReach, nil, closeK, closeMinR)
}
