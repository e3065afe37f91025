package core

import (
	"errors"
	"math"

	"clockroute/internal/candidate"
	"clockroute/internal/elmore"
	"clockroute/internal/grid"
	"clockroute/internal/tech"
)

// This file implements the A*-style admissible pruning layer shared by the
// search kernels. Three ingredients combine into a bound test applied to
// every candidate before it enters a Pareto store or heap:
//
//  1. A BFS distance field to the source, computed once per search on
//     pooled scratch memory. The search grows backward from the sink, so
//     dist(v, source) counts the grid edges any completion of a candidate
//     at v must still cross.
//  2. A per-period segment reach N: the maximum number of grid edges one
//     clocked-to-clocked segment can span under period T (a capped Pareto
//     DP along an ideal unobstructed line — obstacles only remove buffer
//     sites, so a real segment can never span more). dist and N give the
//     edges the current segment must still cross once later segments
//     span all they can within the budget; a segBound delay table turns
//     that into a test on the candidate's own (c, d) (RBP, GALS,
//     FastPath), and the latch router telescopes it into a latency bound.
//  3. An incumbent: a feasible solution cost U found before the main
//     search, against which the lower bounds prune. The probe runs the
//     search's own kernel confined to one BFS shortest path (probe), so
//     the incumbent is a real solution of the full grid and no second copy
//     of a kernel's labeling rules exists to drift from the first. When
//     that path admits no solution — blockages, an infeasible period — the
//     search runs without an incumbent, with only reachability and segment
//     pruning: bounds never cost feasibility.
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

// Bounds is the per-search admissible lower-bound state, pooled on Scratch
// (PrepBounds). Exported because the latch router borrows it through
// core.Scratch exactly like the in-package kernels.
type Bounds struct {
	// distSrc is a read-only view for the current search: it aliases either
	// the pooled ownSrc buffer (uncached runs) or an immutable field
	// published by a plan-scoped ShareCache. Writers must target ownSrc,
	// never the view — growing a view in place could recycle a shared
	// field as scratch and corrupt concurrent searches reading it.
	distSrc []int32 // BFS edge distance from the source; -1 unreachable
	maxSrc  int32   // largest finite distSrc entry
	ownSrc  []int32 // pooled storage behind distSrc on uncached runs
	queue   []int32 // BFS worklist

	fa, fb []segState   // sweepLine frontiers
	onPath nodeFlags    // the probe's one-path window (pathWindow)
	rem    [2][]float64 // segBound remainder tables (GALS uses one per domain)
}

// segState is one Pareto point of the ideal-line segment DP.
type segState struct{ c, d float64 }

// PrepBounds computes the BFS distance field for p on s's pooled bounds
// memory and returns it. Steady state this allocates nothing: the int32
// field and DP buffers are retained across searches like every other
// Scratch resource.
func (s *Scratch) PrepBounds(p *Problem) *Bounds {
	b := &s.bounds
	if n := p.Grid.NumNodes(); cap(b.ownSrc) < n {
		b.ownSrc = make([]int32, n)
	} else {
		b.ownSrc = b.ownSrc[:n]
	}
	b.maxSrc = b.bfs(p, p.Source, b.ownSrc)
	b.distSrc = b.ownSrc
	return b
}

// prepBoundsShared is PrepBounds routed through a plan-scoped ShareCache:
// the BFS distance field is computed once per (grid, source) across the
// whole plan and shared read-only between searches. BFS is
// model-independent, so the fields are reusable across the planner's
// width ladder as well as across nets. Falls back to a private PrepBounds
// when sh is nil or owns a different grid.
func (s *Scratch) prepBoundsShared(p *Problem, sh *ShareCache) *Bounds {
	if !sh.owns(p.Grid) {
		return s.PrepBounds(p)
	}
	b := &s.bounds
	f := sh.field(p, b)
	b.distSrc, b.maxSrc = f.dist, f.maxD
	return b
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

// pathWindow marks one BFS shortest path from the sink to the source in
// the pooled probe window and returns it, or nil when the source is
// unreachable. Among equally-near neighbors the lowest node ID is taken,
// so the path is deterministic. A shortest path has no chords — two of its
// nodes that are grid neighbors but not consecutive on it would shortcut
// it — so a kernel confined to the window moves only along the path and
// reaches every labeling of it.
func (b *Bounds) pathWindow(p *Problem) *nodeFlags {
	if b.distSrc[p.Sink] < 0 {
		return nil
	}
	w := &b.onPath
	w.reuse(p.Grid.NumNodes())
	u := p.Sink
	w.Set(u)
	for b.distSrc[u] > 0 {
		next, want := -1, b.distSrc[u]-1
		for d := grid.East; d <= grid.South; d++ {
			if v, ok := p.Grid.Neighbor(u, d); ok && b.distSrc[v] == want && (next == -1 || v < next) {
				next = v
			}
		}
		u = next // adjacency is symmetric, so BFS left a predecessor
		w.Set(u)
	}
	return w
}

// probe runs kernel confined to one BFS shortest path (pathWindow) and
// returns its solution as the search's incumbent, with the configs the run
// popped. A windowed run only withholds candidates, so its solution is a
// real solution of the full grid: the incumbent is sound by construction,
// whatever the kernel's labeling rules. inc is nil when the path admits no
// solution or the source is unreachable. The run inherits only the
// caller's Deadline and Abort — an abort propagates as err — and needs no
// budget of its own: the window bounds it by path length × waves ×
// frontier. Its scratch mutations are rewound before the main search,
// which prepares its stores afterwards.
func (sc *Scratch) probe(p *Problem, opts Options, kernel func(Options, *nodeFlags) (*Result, error)) (inc *Result, configs int, err error) {
	win := sc.bounds.pathWindow(p)
	if win == nil {
		return nil, 0, nil
	}
	res, err := kernel(Options{Deadline: opts.Deadline, Abort: opts.Abort, DisableBounds: true}, win)
	sc.resetSearchState()
	switch {
	case err == nil:
		return res, res.Stats.Configs, nil
	case errors.Is(err, ErrNoPath):
		return nil, res.Stats.Configs, nil
	}
	return nil, 0, err
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

// rbpBound is the RBP-family bound state (two-queue, array-of-queues and
// max-slack): the distance field, the segment reach, the register-count
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
