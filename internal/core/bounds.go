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
//     pruning: bounds never cost feasibility. Plain RBP and GALS also take
//     the probe's arrival key, which bounds the key of the arrival they
//     return in the probe's own wave (keyBound).
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
	keyAdd []float64    // keyBound's increment table
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
// popped; a wavefront run's incumbent also carries its arrival key. A
// windowed run only withholds candidates, so its solution is a
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

// keyBound bounds the queue key of the arrival a plain RBP or GALS search
// returns when its minimal wave is the probe's own. The search returns the
// first feasible arrival popped at the source in that wave, and Q pops by
// the key D. The probe's route is a route of the full grid, so some
// feasible arrival in the wave has a key no larger than the probe's
// arrival key K, and the returned one pops no later: its key is at most K.
// A completion ending in that wave whose key must pass K is therefore
// never the answer, which gives two tests (spanBound):
//
//   - in the probe's wave, a candidate (c, d) of the accepting domain at
//     BFS distance dist from the source is pruned when
//     d + add[dist] > K + eps;
//   - a completion that ends at the incumbent's latency has a source
//     segment of at most rUB edges, so the spans cap that last segment.
//
// add[k] is the least key increment over k more edges: segBound's
// ideal-line sweep seeded at (cmin, 0) without a closing element, dropping
// states whose delay passes the limit. Elmore delay is linear in the seed,
// so a candidate with c ≥ cmin reaches the source after j ≥ k edges with a
// key of at least d + add[k] (delay only grows along a path). rUB is the
// longest segment whose key can stay within the limit, opened by the
// element with the least setup among those that open the accepting
// domain's segments: the register, and for GALS the FIFO.
type keyBound struct {
	add   []float64 // add[k] for k ≤ the accepting domain's reach; nil = no key bound
	limit float64   // the probe's arrival key plus boundEps
	rUB   int       // the longest source segment whose key can stay within limit
}

// prune reports whether a candidate with delay d at BFS distance dist from
// the source must pass the key limit before it arrives there. dist past the
// table's reach cannot be crossed by one segment at all.
func (k *keyBound) prune(d float64, dist int) bool {
	return dist >= len(k.add) || d+k.add[dist] > k.limit
}

// keyBound returns the accepting domain's key bound under the probe's
// arrival key, its increment table swept into the pooled slot for up to
// reach edges. fifoOpens makes the FIFO open the domain's segments as well
// as the register (GALS z=1).
func (b *Bounds) keyBound(m *elmore.Model, key float64, reach int, fifoOpens bool) keyBound {
	tc := m.Tech()
	kb := keyBound{limit: key + boundEps(key)}
	setup := tc.Register.Setup
	if fifoOpens {
		setup = math.Min(setup, tc.FIFO.Setup)
	}
	if cap(b.keyAdd) < reach+1 {
		b.keyAdd = make([]float64, reach+1)
	}
	add := b.keyAdd[:reach+1]
	for i := range add {
		add[i] = math.Inf(1)
	}
	seed := segState{newSegBound(tc, 0, fifoOpens, false).cmin, 0}
	b.sweepLine(m, seed, reach, func(s segState) bool { return s.d <= kb.limit }, func(k int, st []segState) {
		for _, s := range st {
			add[k] = math.Min(add[k], s.d)
		}
	})
	for k, a := range add {
		if setup+a <= kb.limit {
			kb.rUB = k
		}
	}
	kb.add = add
	return kb
}

// spanBound is the delay-aware bound of a clocking scheme: one segBound
// per domain and the incumbent's latency budget, from which each wave
// gets the edge spans of the segments still to come after the current
// one (spans). With one domain this is RBP's register-count bound: a
// completion of wave p may add maxWave−p more registers, each spanning at
// most reach edges. key, when set, caps the source segment of completions
// ending at the incumbent's latency and adds the key test in the probe's
// wave.
type spanBound struct {
	b      *Bounds
	s      *scheme
	seg    [2]segBound
	reach  [2]int
	lat    float64 // the incumbent's latency; +Inf without one
	maxLat float64 // lat plus latencyEps
	key    keyBound
}

// waveBound is the bound state of one wave: each domain's span (spans),
// and for each domain whether its candidates also face the key test —
// only the accepting domain's, and only in the probe's own wave.
type waveBound struct {
	span  [2]int
	keyed [2]bool
}

// bound prepares the admissible-bound state of a search under s: the BFS
// distance field, each domain's segment reach (segments after the first
// domain may start from the FIFO; segments before the last may close into
// it), a latency incumbent from the search itself probed on one shortest
// path, and each domain's delay table — segments open at a register, a
// buffer or (after the first domain) the FIFO and close within the
// domain's period. Outside max-slack mode, which returns the best-slack
// arrival of a drained wave rather than the first one, the probe's arrival
// key adds the key bound. Only an abort propagates as err.
func (s *scheme) bound(p *Problem, opts Options, sc *Scratch) (*spanBound, int, error) {
	sh := opts.Share
	b := sc.prepBoundsShared(p, sh)
	g := &spanBound{b: b, s: s, lat: math.Inf(1), maxLat: math.Inf(1)}
	for z, d := range s.dom[:s.nd] {
		g.reach[z] = b.segmentReachShared(sh, p, p.Model, d.T, int(b.maxSrc), z > 0, d.K, d.R)
	}
	inc, probeConfigs, err := sc.probe(p, opts, func(o Options, win *nodeFlags) (*Result, error) {
		return search(p, s, o, sc, win)
	})
	if err != nil {
		return nil, 0, err
	}
	if inc != nil {
		g.lat, g.maxLat = inc.Latency, inc.Latency+latencyEps
	}
	for z, d := range s.dom[:s.nd] {
		g.seg[z] = b.segBound(z, p.Model, d.T+boundEps(d.T), g.reach[z], z > 0, z+1 < s.nd)
	}
	if last := s.nd - 1; inc != nil && !s.maxSlack(opts) {
		g.key = b.keyBound(p.Model, inc.arrivalKey, g.reach[last], last > 0)
	}
	return g, probeConfigs, nil
}

// spans returns the bound state of a wave at accumulated latency l, the
// least latency of its candidates (a larger budget than any of theirs, so
// the spans stay admissible for all). span < 0 means no close sequence
// fits the budget, so every candidate of that domain is doomed. Once per
// wave, never per candidate: the sink domain's maximization loops over its
// close count. Spans are capped at the source's BFS radius, past which
// need ≤ 0 everywhere, which also caps the loop at radius/reach + 1
// iterations. Without an incumbent maxCloses saturates, so every span is
// the radius (0 where a domain's segments cannot span an edge at all). The
// wave is the probe's own when one close of the accepting domain is left
// and it ends at the incumbent's latency.
func (g *spanBound) spans(l float64) (w waveBound) {
	limit := int(g.b.maxSrc)
	last := g.s.nd - 1
	ts := g.s.dom[last].T
	// The accepting domain: n closes fit, the current segment's included.
	w.span[last] = -1
	if n := maxCloses(l, ts, g.maxLat); n >= 1 {
		w.span[last] = g.tail(n-1, l+float64(n)*ts, limit)
		w.keyed[last] = n == 1 && g.key.add != nil && g.atIncumbent(l+ts)
	}
	if last == 0 {
		return w
	}
	// The sink domain: a ≥ 1 closes at Tt (the FIFO's included), then
	// b ≥ 1 closes at Ts.
	tt, reachT := g.s.dom[0].T, g.reach[0]
	w.span[0] = -1
	if g.reach[last] <= 0 || reachT <= 0 {
		return w // no solution: every side needs a segment spanning an edge
	}
	for a := 1; ; a++ {
		base := l + float64(a)*tt
		bn := maxCloses(base, ts, g.maxLat)
		if bn < 1 {
			break
		}
		s := min(spanOf(a-1, reachT, limit)+g.tail(bn, base+float64(bn)*ts, limit), limit)
		w.span[0] = max(w.span[0], s)
		if s >= limit || (a-1)*reachT >= limit {
			break
		}
	}
	return w
}

// tail returns the most edges m more segments of the accepting domain can
// span when the last of them ends the path at latency end: m·reach, except
// that a completion ending at the incumbent's latency has a source segment
// of at most rUB edges (keyBound). Completions with fewer closes end below
// it and span at most (m−1)·reach, within the capped value.
func (g *spanBound) tail(m int, end float64, limit int) int {
	reach := g.reach[g.s.nd-1]
	if m < 1 || g.key.add == nil || !g.atIncumbent(end) {
		return spanOf(m, reach, limit)
	}
	return min(spanOf(m-1, reach, limit)+min(g.key.rUB, reach), limit)
}

// atIncumbent reports whether a completion ending at latency end ends at
// the incumbent's latency rather than below it. Latencies are sums of
// periods, so genuine differences dwarf latencyEps (wave.go).
func (g *spanBound) atIncumbent(end float64) bool { return end >= g.lat-latencyEps }

// prune is the bound test for a domain-z candidate (c, d) at node v, where
// span is its domain's span in the candidate's wave: the segment must
// still cross dist − span edges and close within the domain's period. It
// depends on (node, z, wave) and is monotone in (c, d), as the exactness
// contract requires; register and FIFO children carry fixed (c, d), so
// their prune depends on (node, z, wave) alone.
func (g *spanBound) prune(v int32, z uint8, c, d float64, span int) bool {
	dist := int(g.b.distSrc[v])
	if dist < 0 || span < 0 {
		return true
	}
	return g.seg[z].prune(c, d, dist-span)
}

// keyPrune is the key test for an accepting-domain candidate with delay d
// at node v in the probe's wave (waveBound.keyed): it must reach the
// source within the key limit. Like prune, it depends on the node alone
// and grows with d. Callers run it after prune, which rejects unreachable
// nodes; the two stay separate so each inlines into the kernel's
// admission test.
func (g *spanBound) keyPrune(v int32, d float64) bool {
	return g.key.prune(d, int(g.b.distSrc[v]))
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
