package core

import (
	"math"
	"time"

	"clockroute/internal/candidate"
	"clockroute/internal/elmore"
	"clockroute/internal/grid"
	"clockroute/internal/tech"
)

// This file implements the A*-style admissible pruning layer shared by the
// search kernels. Three ingredients combine into a bound test applied to
// every candidate before it enters a Pareto store or heap:
//
//  1. BFS distance fields over the grid (to the source and to the sink),
//     computed once per search on pooled scratch memory. The search grows
//     backward from the sink, so dist(v, source) counts the grid edges any
//     completion of a candidate at v must still cross.
//  2. A per-period segment reach N: the maximum number of grid edges one
//     clocked-to-clocked segment can span under period T (a capped Pareto
//     DP along an ideal unobstructed line — obstacles only remove buffer
//     sites, so a real segment can never span more). dist and N give the
//     edges the current segment must still cross once later segments
//     span all they can within the budget; a segBound delay table turns
//     that into a test on the candidate's own (c, d) (RBP, GALS,
//     FastPath), and the latch router telescopes it into a latency bound.
//  3. An incumbent: a feasible solution cost U obtained cheaply before the
//     main search, against which the lower bounds prune. The primary probe
//     runs the exact segment DP along one BFS shortest path (microseconds);
//     when that path admits no feasible labeling — blockages, infeasible
//     period — a bounded search-window probe (the same kernel restricted to
//     a corridor of near-shortest paths, on a small config budget) tries to
//     find one. If neither yields an incumbent the search falls back to the
//     plain exact expansion with only reachability/period pruning: bounds
//     never cost feasibility.
//
// Exactness contract: every prune predicate is monotone in the store's
// dominance order at a fixed (node, wave) — if a candidate is pruned, any
// candidate it would have dominated is pruned too. Combined with the
// value-ordered heaps (pqueue.Heap.Tie) this makes the bounded kernel's
// live (not doomed) candidates and their pop order identical to the
// unbounded kernel's, so routed results match bit for bit; only the
// effort counters differ. DESIGN.md ("Search kernel") carries the full
// argument, including why the single-shot A(v)/F(v) marks stay exact.

// boundEps pads incumbent comparisons so float rounding in the precomputed
// bound (one multiply) versus the kernel's incremental accumulation can
// never prune a candidate that ties the incumbent. Relative to the
// incumbent's magnitude; genuine cost differences are many orders larger.
func boundEps(u float64) float64 { return 1e-6 * (1 + math.Abs(u)) }

// noIncumbent marks "no feasible upper bound found" for integer wave bounds.
const noIncumbent = math.MaxInt32 / 2

// windowSlack widens the probe corridor beyond the shortest source-sink
// distance: nodes with distSrc+distSink ≤ dist0+windowSlack participate.
// Even, because grid detours change path length in steps of two.
const windowSlack = 4

// probeBudgetBase / probeBudgetPerEdge bound the windowed probe's configs:
// the probe is a bet, and a lost bet must cost a bounded fraction of the
// exact search it precedes.
const (
	probeBudgetBase    = 2048
	probeBudgetPerEdge = 32
)

// Bounds is the per-search admissible lower-bound state, pooled on Scratch
// (PrepBounds). Exported because the latch router borrows it through
// core.Scratch exactly like the in-package kernels.
type Bounds struct {
	// distSrc and distSink are read-only views for the current search: they
	// alias either the pooled ownSrc/ownSink buffers (uncached runs) or
	// immutable fields published by a plan-scoped ShareCache. Writers must
	// target ownSrc/ownSink, never the views — growing a view in place
	// could recycle a shared field as scratch and corrupt concurrent
	// searches reading it.
	distSrc  []int32 // BFS edge distance from the source; -1 unreachable
	distSink []int32 // BFS edge distance from the sink; -1 unreachable
	maxSrc   int32   // largest finite distSrc entry
	ownSrc   []int32 // pooled storage behind distSrc on uncached runs
	ownSink  []int32 // pooled storage behind distSink on uncached runs
	queue    []int32 // BFS worklist, reused by both passes

	// Segment-DP buffers (sweepLine, pathMinRegs, pathMinLat, pathMinDelay).
	fa, fb []segState
	path   []int32      // one BFS shortest path, sink first
	seedsA []int32      // pathMinRegs wave seed positions (current wave)
	seedsB []int32      // pathMinRegs wave seed positions (next wave)
	fifoK  []int32      // pathMinLat: fewest sink-side registers per FIFO site
	rem    [2][]float64 // segBound remainder tables (GALS uses one per domain)
}

// segState is one Pareto point of the segment DP.
type segState struct{ c, d float64 }

// PrepBounds computes the BFS distance fields for p on s's pooled bounds
// memory and returns them. Steady state this allocates nothing: the int32
// fields and DP buffers are retained across searches like every other
// Scratch resource.
func (s *Scratch) PrepBounds(p *Problem) *Bounds {
	b := &s.bounds
	n := p.Grid.NumNodes()
	b.ownSrc = grow(b.ownSrc, n)
	b.ownSink = grow(b.ownSink, n)
	b.maxSrc = b.bfs(p, p.Source, b.ownSrc)
	b.bfs(p, p.Sink, b.ownSink)
	b.distSrc, b.distSink = b.ownSrc, b.ownSink
	return b
}

// prepBoundsShared is PrepBounds routed through a plan-scoped ShareCache:
// the BFS distance fields for each endpoint are computed once per (grid,
// origin) across the whole plan and shared read-only between searches. BFS
// is model-independent, so the fields are reusable across the planner's
// width ladder as well as across nets. Falls back to a private PrepBounds
// when sh is nil or owns a different grid.
func (s *Scratch) prepBoundsShared(p *Problem, sh *ShareCache) *Bounds {
	if sh == nil || !sh.owns(p.Grid) {
		return s.PrepBounds(p)
	}
	b := &s.bounds
	fs := sh.field(p, p.Source, b)
	ft := sh.field(p, p.Sink, b)
	b.distSrc, b.distSink, b.maxSrc = fs.dist, ft.dist, fs.maxD
	return b
}

// grow resizes sl to exactly n entries, reusing capacity.
func grow(sl []int32, n int) []int32 {
	if cap(sl) < n {
		return make([]int32, n)
	}
	return sl[:n]
}

// bfs fills dist with edge distances from src (-1 = unreachable) and
// returns the largest finite distance. Edges follow grid.ForNeighbors, the
// same adjacency every kernel expands over, so reachability here is
// reachability there.
func (b *Bounds) bfs(p *Problem, src int, dist []int32) int32 {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	q := b.queue[:0]
	q = append(q, int32(src))
	var maxD int32
	// Ring-free worklist: head indexes into q, which only grows; the
	// direction loop avoids a per-node closure so a steady-state BFS
	// allocates nothing (the worklist's capacity is retained on b).
	for head := 0; head < len(q); head++ {
		u := int(q[head])
		du := dist[u] + 1
		for d := grid.East; d <= grid.South; d++ {
			if v, ok := p.Grid.Neighbor(u, d); ok && dist[v] == -1 {
				dist[v] = du
				if du > maxD {
					maxD = du
				}
				q = append(q, int32(v))
			}
		}
	}
	b.queue = q[:0]
	return maxD
}

// DistToSource returns the BFS edge distance from node v to the search's
// source (-1 when unreachable).
func (b *Bounds) DistToSource(v int32) int32 { return b.distSrc[v] }

// DistToSink returns the BFS edge distance from node v to the sink.
func (b *Bounds) DistToSink(v int32) int32 { return b.distSink[v] }

// MinEdgeDelay returns the smallest Elmore delay a single grid edge can add
// to any candidate: edgeR·edgeC/2, the wire term at zero downstream load.
func MinEdgeDelay(m *elmore.Model) float64 { return m.EdgeR() * m.EdgeC() / 2 }

// segmentReach returns an upper bound on the number of grid edges one
// clocked-to-clocked segment can span under period T. The segment starts
// from a register (or, when start2 is non-nil — GALS's FIFO — the
// componentwise-min seed over both) and a state stays viable while its
// delay potential d + closeMinR·c can still fit under T − closeK, which is
// exactly RBP's lookahead theorem: every continuation's closing delay is at
// least closeK + that potential, monotonically in edges and gates, so
// states failing the test belong to no closeable segment — and states of
// any kernel-closeable segment pass it. The DP runs along an ideal line
// with buffers available at every step; a real grid segment threads
// obstacles that only remove buffer options, so its span can never exceed
// the ideal one. The scan is capped at maxReach edges (distances beyond the
// grid's diameter never matter), so huge periods cost O(maxReach) instead
// of exploding.
func (b *Bounds) segmentReach(m *elmore.Model, T float64, maxReach int, start2 *tech.Element, closeK, closeMinR float64) int {
	reg := m.Tech().Register
	seed := segState{reg.C, reg.Setup}
	if start2 != nil {
		seed = segState{math.Min(seed.c, start2.C), math.Min(seed.d, start2.Setup)}
	}
	limit := T - closeK
	return b.sweepLine(m, seed, maxReach, func(s segState) bool { return s.d+closeMinR*s.c <= limit }, nil)
}

// sweepLine runs the ideal-line Pareto DP shared by segmentReach and
// segBound: from seed (step 0), each step crosses one edge and may then
// insert one library buffer, keeping the states viable accepts. visit, when
// non-nil, sees every non-empty step's frontier, the seed's included. The
// sweep stops after maxSteps steps or once the frontier empties, and
// returns the last step with a non-empty frontier (0 when even the seed is
// not viable).
func (b *Bounds) sweepLine(m *elmore.Model, seed segState, maxSteps int, viable func(segState) bool, visit func(k int, st []segState)) int {
	tc := m.Tech()
	cur, next := b.fa[:0], b.fb[:0]
	if viable(seed) {
		cur = append(cur, seed)
		if visit != nil {
			visit(0, cur)
		}
	}
	last := 0
	for k := 1; k <= maxSteps && len(cur) > 0; k++ {
		next = next[:0]
		for _, s := range cur {
			c2, d2 := m.AddEdge(s.c, s.d)
			if e := (segState{c2, d2}); viable(e) {
				next = appendState(next, e)
			}
			for bi := range tc.Buffers {
				cg, dg := m.AddGate(tc.Buffers[bi], c2, d2)
				if g := (segState{cg, dg}); viable(g) {
					next = appendState(next, g)
				}
			}
		}
		if len(next) > 0 {
			last = k
			if visit != nil {
				visit(k, next)
			}
		}
		cur, next = next, cur
	}
	// Return the swap-scrambled buffers to b truncated, in either order.
	b.fa, b.fb = cur[:0], next[:0]
	return last
}

// appendState adds s to the Pareto frontier st: dropped if an existing
// entry dominates (or equals) it, otherwise appended with the entries it
// dominates removed. The full dominance scan runs before the compaction so
// the in-place filter never reads an already-overwritten slot.
func appendState(st []segState, s segState) []segState {
	for _, o := range st {
		if o.c <= s.c && o.d <= s.d {
			return st
		}
	}
	out := st[:0]
	for _, o := range st {
		if !(s.c <= o.c && s.d <= o.d) {
			out = append(out, o)
		}
	}
	return append(out, s)
}

// shortestPath reconstructs one BFS shortest path from the sink to the
// source into b.path (sink first). Among equally-near neighbors the lowest
// node ID wins, so the path is deterministic. Returns false when the source
// is unreachable.
func (b *Bounds) shortestPath(p *Problem) bool {
	d0 := b.distSrc[p.Sink]
	if d0 < 0 {
		return false
	}
	b.path = b.path[:0]
	u := p.Sink
	b.path = append(b.path, int32(u))
	for b.distSrc[u] > 0 {
		next := -1
		want := b.distSrc[u] - 1
		for d := grid.East; d <= grid.South; d++ {
			if v, ok := p.Grid.Neighbor(u, d); ok && b.distSrc[v] == want && (next == -1 || v < next) {
				next = v
			}
		}
		if next == -1 {
			return false // cannot happen on a consistent BFS field
		}
		u = next
		b.path = append(b.path, int32(u))
	}
	return true
}

// pathMinRegs runs RBP's exact segment DP along one BFS shortest path and
// returns the minimum register count of a feasible labeling of that path,
// or ok=false when the path admits none (blocked insertion sites or an
// infeasible period). Every labeling the DP accepts is a real solution the
// kernel can reach — gates only at insertable interior nodes, at most one
// per node, every segment closed by a register within T, every
// intermediate state passing the kernel's own lookahead — so the returned
// count is a sound incumbent for wave pruning. Cost is O(len·frontier).
func (b *Bounds) pathMinRegs(p *Problem, T float64) (int, bool) {
	if !b.shortestPath(p) {
		return 0, false
	}
	g, m := p.Grid, p.Model
	tc := p.tech()
	reg := tc.Register
	minR := tc.MinBufferR()
	limit := T - reg.K
	last := len(b.path) - 1
	maxWaves := len(b.path) // one register per interior node at most

	seeds := append(b.seedsA[:0], 0) // wave 0 starts at the sink, position 0
	nextSeeds := b.seedsB[:0]
	cur, step := b.fa[:0], b.fb[:0]
	done := func(w int, ok bool) (int, bool) {
		b.fa, b.fb = cur[:0], step[:0]
		b.seedsA, b.seedsB = seeds[:0], nextSeeds[:0]
		return w, ok
	}
	for w := 0; w < maxWaves; w++ {
		nextSeeds = nextSeeds[:0]
		cur = cur[:0]
		si := 0
		for pos := 0; pos <= last; pos++ {
			u := int(b.path[pos])
			// Merge this wave's register seed at pos, if any.
			if si < len(seeds) && seeds[si] == int32(pos) {
				cur = appendState(cur, segState{reg.C, reg.Setup})
				si++
			}
			if len(cur) == 0 {
				continue
			}
			if pos == last {
				// Source: feasible close ends the search at w registers.
				for _, s := range cur {
					if m.DriveInto(reg, s.c, s.d) <= T {
						return done(w, true)
					}
				}
				break
			}
			interior := pos != 0
			// Register insertion opens the next wave at this position.
			if interior && g.Insertable(u) && g.RegisterInsertable(u) {
				for _, s := range cur {
					if m.DriveInto(reg, s.c, s.d) <= T {
						if len(nextSeeds) == 0 || nextSeeds[len(nextSeeds)-1] != int32(pos) {
							nextSeeds = append(nextSeeds, int32(pos))
						}
						break
					}
				}
			}
			// Buffer insertion at pos, then the edge to pos+1. Both apply
			// the kernel's lookahead potential d + minR·c ≤ T − K(r).
			n := len(cur)
			if interior && g.Insertable(u) {
				for _, s := range cur[:n] {
					for bi := range tc.Buffers {
						bu := tc.Buffers[bi]
						c2, d2 := m.AddGate(bu, s.c, s.d)
						if d2+minR*c2 <= limit {
							cur = appendState(cur, segState{c2, d2})
						}
					}
				}
			}
			step = step[:0]
			for _, s := range cur {
				c2, d2 := m.AddEdge(s.c, s.d)
				if d2+minR*c2 <= limit {
					step = appendState(step, segState{c2, d2})
				}
			}
			cur, step = step, cur
		}
		if len(nextSeeds) == 0 {
			return done(0, false)
		}
		seeds, nextSeeds = nextSeeds, seeds
		b.seedsA, b.seedsB = seeds, nextSeeds
	}
	return done(0, false)
}

// pathMinLat computes the minimum total latency of a GALS labeling of one
// BFS shortest path, or ok=false when the path admits none. A GALS path
// decomposes around its single MCFIFO: k0 relay registers on the sink side
// (each segment closed within Tt), the FIFO, then k1 relays on the source
// side (segments within Ts), for a total latency (k0+1)·Tt + (k1+1)·Ts —
// exactly the kernel's accounting (l grows by T(z) per relay, Tt at the
// FIFO, Ts at the final source close). The two sides are independent given
// the FIFO site, and latency is monotone in each register count, so the
// path optimum is min over FIFO sites f of the per-side register minima.
//
// Phase A runs the sink-side wave DP under Tt once, recording in fifoK[f]
// the fewest registers after which the FIFO can close at f. Phase B groups
// the sites by that count and runs one source-side wave DP per distinct
// value, multi-seeded at the class's sites — the first wave that closes
// into the source register yields the class's k1 minimum.
//
// Every labeling the DP accepts is kernel-reachable: gates only at
// insertable interior nodes (registers and the FIFO additionally require
// RegisterInsertable), at most one gate per node — a wave's fresh seed is
// merged after the close and buffer blocks, so the node a register or FIFO
// occupies is never given a second gate — and each step passes the kernel's
// own feasibility checks. The returned latency is therefore the latency of
// a real solution and a sound upper bound for galsBound. Cost is
// O(len·frontier) per wave DP, orders of magnitude below a kernel probe.
func (b *Bounds) pathMinLat(p *Problem, Ts, Tt float64) (float64, bool) {
	if !b.shortestPath(p) {
		return 0, false
	}
	g, m := p.Grid, p.Model
	tc := p.tech()
	reg, fifo := tc.Register, tc.FIFO
	minR := tc.MinBufferR()
	last := len(b.path) - 1
	maxWaves := len(b.path)

	b.fifoK = grow(b.fifoK, len(b.path))
	for i := range b.fifoK {
		b.fifoK[i] = -1
	}

	seeds := append(b.seedsA[:0], 0) // wave 0 starts at the sink, position 0
	nextSeeds := b.seedsB[:0]
	cur, step := b.fa[:0], b.fb[:0]
	done := func(lat float64, ok bool) (float64, bool) {
		b.fa, b.fb = cur[:0], step[:0]
		b.seedsA, b.seedsB = seeds[:0], nextSeeds[:0]
		return lat, ok
	}

	// runWave advances one wave of the segment DP across the path under
	// period T (lookahead slope/limit per the side's cheapest close). At
	// each interior site it calls visit on the edge-arrived frontier —
	// close decisions live there — then expands buffers, merges the wave's
	// seed, and steps the edge. seedState is the electrical state a seed
	// opens with (the register, or the FIFO on phase B's first wave).
	runWave := func(T, slope, limit float64, seedState segState, visit func(pos int, st []segState)) {
		nextSeeds = nextSeeds[:0]
		cur = cur[:0]
		si := 0
		for pos := 0; pos <= last; pos++ {
			u := int(b.path[pos])
			interior := pos != 0 && pos != last
			if len(cur) > 0 {
				visit(pos, cur)
				if interior && g.Insertable(u) {
					if g.RegisterInsertable(u) {
						for _, s := range cur {
							if m.DriveInto(reg, s.c, s.d) <= T {
								if len(nextSeeds) == 0 || nextSeeds[len(nextSeeds)-1] != int32(pos) {
									nextSeeds = append(nextSeeds, int32(pos))
								}
								break
							}
						}
					}
					n := len(cur)
					for _, s := range cur[:n] {
						for bi := range tc.Buffers {
							bu := tc.Buffers[bi]
							c2, d2 := m.AddGate(bu, s.c, s.d)
							if d2+slope*c2 <= limit {
								cur = appendState(cur, segState{c2, d2})
							}
						}
					}
				}
			}
			if si < len(seeds) && seeds[si] == int32(pos) {
				cur = appendState(cur, seedState)
				si++
			}
			if len(cur) == 0 || pos == last {
				continue
			}
			step = step[:0]
			for _, s := range cur {
				c2, d2 := m.AddEdge(s.c, s.d)
				if d2+slope*c2 <= limit {
					step = appendState(step, segState{c2, d2})
				}
			}
			cur, step = step, cur
		}
	}

	// Phase A: sink-side waves under Tt. The side's segments may close into
	// a relay register or the FIFO, so viability uses the cheaper of the
	// two closes — exactly the sink-domain reach's closeK/closeR.
	slopeT := math.Min(minR, fifo.R)
	limitT := Tt - math.Min(reg.K, fifo.K)
	maxK := int32(-1)
	for w := 0; w < maxWaves; w++ {
		runWave(Tt, slopeT, limitT, segState{reg.C, reg.Setup}, func(pos int, st []segState) {
			if pos == 0 || pos == last || b.fifoK[pos] >= 0 {
				return
			}
			u := int(b.path[pos])
			if !g.Insertable(u) || !g.RegisterInsertable(u) {
				return
			}
			for _, s := range st {
				if m.DriveInto(fifo, s.c, s.d) <= Tt {
					b.fifoK[pos] = int32(w)
					if int32(w) > maxK {
						maxK = int32(w)
					}
					return
				}
			}
		})
		if len(nextSeeds) == 0 {
			break
		}
		seeds, nextSeeds = nextSeeds, seeds
		b.seedsA, b.seedsB = seeds, nextSeeds
	}
	if maxK < 0 {
		return done(0, false) // no feasible FIFO site on this path
	}

	// Phase B: one source-side DP per distinct sink-side register count,
	// seeded at every FIFO site of that class. Classes and waves that can
	// no longer beat the best latency found are skipped.
	best := math.Inf(1)
	slopeS := minR
	limitS := Ts - reg.K
	for k := int32(0); k <= maxK; k++ {
		base := float64(k+1)*Tt + Ts
		if base >= best {
			break // latency grows with k; later classes only cost more
		}
		nextSeeds = nextSeeds[:0]
		for pos, fk := range b.fifoK {
			if fk == k {
				nextSeeds = append(nextSeeds, int32(pos))
			}
		}
		if len(nextSeeds) == 0 {
			continue
		}
		seeds, nextSeeds = nextSeeds, seeds
		b.seedsA, b.seedsB = seeds, nextSeeds
		seedState := segState{fifo.C, fifo.Setup}
		for w := 0; w < maxWaves; w++ {
			if base+float64(w)*Ts >= best {
				break
			}
			closed := false
			runWave(Ts, slopeS, limitS, seedState, func(pos int, st []segState) {
				if pos != last || closed {
					return
				}
				for _, s := range st {
					if m.DriveInto(reg, s.c, s.d) <= Ts {
						closed = true
						return
					}
				}
			})
			if closed {
				if lat := base + float64(w)*Ts; lat < best {
					best = lat
				}
				break
			}
			if len(nextSeeds) == 0 {
				break
			}
			seeds, nextSeeds = nextSeeds, seeds
			b.seedsA, b.seedsB = seeds, nextSeeds
			seedState = segState{reg.C, reg.Setup}
		}
	}
	if math.IsInf(best, 1) {
		return done(0, false)
	}
	return done(best, true)
}

// pathMinDelay runs FastPath's segment DP along one BFS shortest path and
// returns the minimum source-to-sink delay of a buffered labeling of that
// path (including the source register's drive and the sink setup). The
// value is achieved by a labeling the kernel itself can reach with exactly
// the same float operations, so it is a sound — and bitwise-achievable —
// delay incumbent.
func (b *Bounds) pathMinDelay(p *Problem) (float64, bool) {
	if !b.shortestPath(p) {
		return 0, false
	}
	g, m := p.Grid, p.Model
	tc := p.tech()
	reg := tc.Register
	last := len(b.path) - 1

	cur := append(b.fa[:0], segState{reg.C, reg.Setup})
	step := b.fb[:0]
	for pos := 0; pos < last; pos++ {
		u := int(b.path[pos])
		if pos != 0 && g.Insertable(u) {
			n := len(cur)
			for _, s := range cur[:n] {
				for bi := range tc.Buffers {
					bu := tc.Buffers[bi]
					c2, d2 := m.AddGate(bu, s.c, s.d)
					cur = appendState(cur, segState{c2, d2})
				}
			}
		}
		step = step[:0]
		for _, s := range cur {
			c2, d2 := m.AddEdge(s.c, s.d)
			step = appendState(step, segState{c2, d2})
		}
		cur, step = step, cur
	}
	best, ok := math.Inf(1), false
	for _, s := range cur {
		if d2 := m.DriveInto(reg, s.c, s.d); d2 < best {
			best, ok = d2, true
		}
	}
	b.fa, b.fb = cur[:0], step[:0]
	return best, ok
}

// segBound is the delay-aware A* bound for one kind of clocked segment:
// RBP's period-T segment, GALS's Tt (sink-side) or Ts (source-side)
// segment, or FastPath's single source-to-sink segment under its
// incumbent. A candidate (c, d) that must still cross need edges of its
// current segment before the segment closes is doomed when
//
//	d + slope·(c − cmin) + rem[need] > limit.
//
// rem[k] is the least closing delay over ideal-line labelings of j ≥ k
// further edges — buffers available after every edge, then the cheapest
// closing element's K + R·c — seeded at (cmin, 0), where cmin is the least
// capacitance any candidate of the kind can carry. Elmore delay is linear
// in the seed: one fixed continuation closes from (c, d) at exactly
// d + R_up·(c − cmin) plus its close from (cmin, 0), where R_up ≥ slope is
// the resistance of the first gate upstream (a buffer or the closer). Real
// continuations only lose options (obstacles remove buffer sites), so the
// test never prunes a candidate that can close within limit. It is
// monotone in (c, d), so at a fixed (node, wave) a pruned candidate only
// dominates pruned candidates — the exactness contract.
type segBound struct {
	rem   []float64 // rem[k] for k ≤ the segment reach; need beyond it prunes
	cmin  float64   // seed capacitance: no candidate of the kind carries less
	slope float64   // least R of any buffer or closer driving the candidate
	limit float64   // segment period (or incumbent) plus boundEps
}

// prune reports whether a candidate (c, d) that must still cross need
// edges of its current segment cannot close it within the limit. need ≤ 0
// means the segment may close anywhere; need past the table's reach means
// no segment of this kind spans that far.
func (s *segBound) prune(c, d float64, need int) bool {
	if need < 0 {
		need = 0
	}
	if need >= len(s.rem) {
		return true
	}
	return d+s.slope*(c-s.cmin)+s.rem[need] > s.limit
}

// newSegBound returns the bound of one segment kind without its table.
// The segment opens from the register or a buffer (or the FIFO when
// fifoOpens) and closes into the register (or the FIFO when fifoCloses).
func newSegBound(tc *tech.Tech, limit float64, fifoOpens, fifoCloses bool) segBound {
	sb := segBound{cmin: tc.Register.C, slope: tc.MinBufferR(), limit: limit}
	for _, bu := range tc.Buffers {
		sb.cmin = math.Min(sb.cmin, bu.C)
	}
	if fifoOpens {
		sb.cmin = math.Min(sb.cmin, tc.FIFO.C)
	}
	if fifoCloses {
		sb.slope = math.Min(sb.slope, tc.FIFO.R)
	}
	return sb
}

// segBound returns the bound of one segment kind (see newSegBound) with
// its remainder table swept into the pooled slot. The sweep drops ideal
// states whose delay potential d + slope·c + K already exceeds limit:
// their closes exceed it too, so they cannot lower an entry a prune test
// compares against limit. It stops after reach steps. The table is
// nondecreasing in the edge count — the seed dominates every state one
// edge from it, so dropping a labeling's first edge never costs more —
// hence rem[k] for k ≤ reach already covers completions longer than
// reach, and the closing suffix-minimum only guards the invariant. A
// caller's reach bounds every need it asks about: a segment's span, or
// FastPath's BFS radius.
func (b *Bounds) segBound(slot int, m *elmore.Model, limit float64, reach int, fifoOpens, fifoCloses bool) segBound {
	tc := m.Tech()
	reg, fifo := tc.Register, tc.FIFO
	sb := newSegBound(tc, limit, fifoOpens, fifoCloses)
	closeK := reg.K
	if fifoCloses {
		closeK = math.Min(closeK, fifo.K)
	}
	closeAt := func(s segState) float64 {
		v := s.d + reg.K + reg.R*s.c
		if fifoCloses {
			v = math.Min(v, s.d+fifo.K+fifo.R*s.c)
		}
		return v
	}
	viable := func(s segState) bool { return s.d+sb.slope*s.c+closeK <= limit }

	if cap(b.rem[slot]) < reach+1 {
		b.rem[slot] = make([]float64, reach+1)
	}
	raw := b.rem[slot][:reach+1]
	for i := range raw {
		raw[i] = math.Inf(1)
	}
	b.sweepLine(m, segState{sb.cmin, 0}, reach, viable, func(k int, st []segState) {
		for _, s := range st {
			raw[k] = math.Min(raw[k], closeAt(s))
		}
	})
	for k := reach - 1; k >= 0; k-- {
		raw[k] = math.Min(raw[k], raw[k+1])
	}
	sb.rem = raw
	return sb
}

// remTable returns FastPath's remainder table for threshold (see
// fastBound), in slot 0 of the pooled tables.
func (b *Bounds) remTable(m *elmore.Model, threshold float64) []float64 {
	return b.fastBound(m, threshold, nil).rem
}

// fastBound is FastPath's segBound: a route is one register-to-register
// segment closed within the incumbent threshold, and every candidate's
// need is its dist, within the source's BFS radius. The table is swept
// afresh unless rem carries one cached by a plan-scoped ShareCache.
func (b *Bounds) fastBound(m *elmore.Model, threshold float64, rem []float64) segBound {
	if rem == nil {
		return b.segBound(0, m, threshold, int(b.maxSrc), false, false)
	}
	sb := newSegBound(m.Tech(), threshold, false, false)
	sb.rem = rem
	return sb
}

// window is the probe corridor: nodes on, or within windowSlack edges of, a
// shortest source-sink path. A windowed kernel run only ever emits
// candidates whose node the window allows, making the probe's cost roughly
// proportional to the corridor instead of the grid.
type window struct {
	distSrc, distSink []int32
	budget            int32
}

// window builds the probe corridor from b's distance fields.
func (b *Bounds) window(p *Problem) *window {
	return &window{
		distSrc:  b.distSrc,
		distSink: b.distSink,
		budget:   b.distSrc[p.Sink] + windowSlack,
	}
}

// allows reports whether node v lies inside the corridor.
func (w *window) allows(v int32) bool {
	ds, dt := w.distSrc[v], w.distSink[v]
	return ds >= 0 && dt >= 0 && ds+dt <= w.budget
}

// probeOptions derives the windowed probe's Options from the caller's: no
// observation (the probe is internal effort, reported via ProbeConfigs),
// no recursion into another probe, and a hard config budget so a lost bet
// stays cheap. Deadline and Abort are inherited — a cancelled search must
// not keep probing.
func probeOptions(opts Options, dist0 int32) Options {
	opts.Trace = nil
	opts.Telemetry = nil
	opts.MaximizeSlack = false
	opts.DisableBounds = true
	opts.MaxConfigs = probeBudgetBase + probeBudgetPerEdge*int(dist0)
	return opts
}

// outerAbortPending reports whether the caller's own Deadline or Abort hook
// has fired — the distinction between "the probe ran out of its private
// budget" (fall back to the exact search) and "the whole request is being
// cancelled" (propagate).
func outerAbortPending(opts Options) bool {
	if !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
		return true
	}
	return opts.Abort != nil && opts.Abort() != nil
}

// rbpBound is the RBP-family bound state (two-queue, array-of-queues and
// max-slack): the distance fields, the segment reach, the register-count
// incumbent maxWave, and the delay table of the period-T segment.
type rbpBound struct {
	b              *Bounds
	seg            segBound
	reach, maxWave int
}

// newRBPBound sweeps the period-T segment's delay table: segments open at
// the register or a buffer and close into a register within T.
func (b *Bounds) newRBPBound(m *elmore.Model, T float64, reach, maxWave int) *rbpBound {
	return &rbpBound{
		b:     b,
		seg:   b.segBound(0, m, T+boundEps(T), reach, false, false),
		reach: reach, maxWave: maxWave,
	}
}

// prune is the RBP bound test for candidate c entering wave `wave`. A
// completion may add at most maxWave−wave more registers, and each later
// segment spans at most reach edges, so the current segment must still
// cross need = dist − (maxWave−wave)·reach edges and close within T — the
// segBound delay test. need past reach is the old register-count bound
// (⌈dist/reach⌉−1 more registers than fit). The predicate depends on
// (node, wave) and is monotone in (c, d), as the exactness contract
// requires; a register child's (c, d) is fixed, so its prune depends on
// (node, wave) alone.
func (r *rbpBound) prune(wave int, c *candidate.Candidate) bool {
	d := int(r.b.distSrc[c.Node])
	if d < 0 || wave > r.maxWave {
		return true
	}
	need := d
	if r.reach > 0 {
		// Capping the register count at d keeps the product small: d more
		// segments of at least one edge each already cover every edge.
		need -= min(r.maxWave-wave, d) * r.reach
	}
	return r.seg.prune(c.C, c.D, need)
}

// galsBound is GALS's delay-aware bound state: one segBound per domain and
// the per-wavefront edge spans of the segments still to come after the
// current one. span[z] < 0 means no close sequence fits the latency budget
// at all, so every domain-z candidate of the wavefront is doomed.
type galsBound struct {
	b              *Bounds
	tab            [2]segBound
	ts, tt, maxLat float64
	reachS, reachT int
	span           [2]int
}

// newGALSBound sweeps both domain tables — z=0 segments open at a
// register and close into a relay register or the FIFO within Tt; z=1
// segments open at the FIFO or a register and close into a register within
// Ts — and sets the spans of the first wavefront (l = 0).
func (b *Bounds) newGALSBound(m *elmore.Model, ts, tt, maxLat float64, reachS, reachT int) *galsBound {
	g := &galsBound{
		b: b,
		tab: [2]segBound{
			b.segBound(0, m, tt+boundEps(tt), reachT, false, true),
			b.segBound(1, m, ts+boundEps(ts), reachS, true, false),
		},
		ts: ts, tt: tt, maxLat: maxLat, reachS: reachS, reachT: reachT,
	}
	g.setWave(0)
	return g
}

// setWave computes the spans for the wavefront at accumulated latency l,
// the least latency of its candidates (a larger budget than any of theirs,
// so the spans stay admissible for all). Once per wavefront, never per
// candidate: the z=0 maximization loops over the Tt close count. Spans are
// capped at the source's BFS radius, past which need ≤ 0 everywhere, which
// also caps the loop at radius/reachT + 1 iterations.
func (g *galsBound) setWave(l float64) {
	limit := int(g.b.maxSrc)
	if math.IsInf(g.maxLat, 1) {
		g.span = [2]int{limit, limit}
		return
	}
	// z=1: n Ts closes fit, the current segment's included.
	g.span[1] = -1
	if n := maxCloses(l, g.ts, g.maxLat); n >= 1 {
		g.span[1] = spanOf(n-1, g.reachS, limit)
	}
	// z=0: a ≥ 1 Tt closes (the FIFO's included) then b ≥ 1 Ts closes.
	g.span[0] = -1
	if g.reachS <= 0 || g.reachT <= 0 {
		return // no solution: every side needs a segment spanning an edge
	}
	for a := 1; ; a++ {
		bn := maxCloses(l+float64(a)*g.tt, g.ts, g.maxLat)
		if bn < 1 {
			break
		}
		s := min(spanOf(a-1, g.reachT, limit)+spanOf(bn, g.reachS, limit), limit)
		g.span[0] = max(g.span[0], s)
		if s >= limit || (a-1)*g.reachT >= limit {
			break
		}
	}
}

// prune is the GALS bound test for a domain-z candidate (c, d) at node v of
// the current wavefront: its segment must still cross dist − span[z] edges
// and close within the domain's period. Like rbpBound.prune it depends on
// (node, z, wavefront) and is monotone in (c, d); register and FIFO
// children carry fixed (c, d), so their prune depends on (node, z,
// wavefront) alone.
func (g *galsBound) prune(v int32, z uint8, c, d float64) bool {
	dist := int(g.b.distSrc[v])
	if dist < 0 || g.span[z] < 0 {
		return true
	}
	return g.tab[z].prune(c, d, dist-g.span[z])
}

// maxCloses returns the most closes n of period T with base + n·T ≤ maxLat
// (−1 when even n = 0 overshoots), checked in the same float form the
// budget comparisons use.
func maxCloses(base, T, maxLat float64) int {
	if base > maxLat {
		return -1
	}
	q := (maxLat - base) / T
	if q > math.MaxInt32 {
		return math.MaxInt32 // far past any span cap; avoids int overflow
	}
	n := int(q)
	for n > 0 && base+float64(n)*T > maxLat {
		n--
	}
	for base+float64(n+1)*T <= maxLat {
		n++
	}
	return n
}

// spanOf returns n·reach capped at limit, without overflow.
func spanOf(n, reach, limit int) int {
	if reach > 0 && n >= (limit+reach-1)/reach {
		return limit
	}
	return n * reach
}

// candidateTieLess is the strict value order installed on every search
// heap: among exact-equal keys, candidates order by node, then by the
// remaining value fields. Within one wave a node's live candidates are
// pairwise distinct in (C, D) (2-D stores) or (C, D, Slack) (tri stores),
// so this order is total over every set of simultaneously-queued live
// candidates — which is what makes pop order content-determined and lets
// bound-pruned runs replay the unpruned pop sequence exactly.
func candidateTieLess(a, b *candidate.Candidate) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.D != b.D {
		return a.D < b.D
	}
	if a.C != b.C {
		return a.C < b.C
	}
	if a.Gate != b.Gate {
		return a.Gate < b.Gate
	}
	if a.Regs != b.Regs {
		return a.Regs < b.Regs
	}
	if a.Z != b.Z {
		return a.Z < b.Z
	}
	if a.Slack != b.Slack {
		return a.Slack < b.Slack
	}
	return a.L < b.L
}
