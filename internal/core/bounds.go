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
//     FastPath), and the latch router's table, over every edge left to
//     the source, into a test on its deadline (latch.go). The reach and
//     the tables come from per-model curves (curves.go).
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
// (prepBounds).
type Bounds struct {
	distSrc []int32 // BFS edge distance from the source; -1 unreachable
	maxSrc  int32   // largest finite distSrc entry
	queue   []int32 // BFS worklist

	onPath nodeFlags    // the probe's one-path window (pathWindow)
	rem    [2][]float64 // segBound remainder tables (GALS uses one per domain)
	keyAdd []float64    // keyBound's increment table
}

// segState is one Pareto point of the ideal-line segment DP.
type segState struct{ c, d float64 }

// prepBounds computes the BFS distance field for p on s's pooled bounds
// memory and returns it. Steady state this allocates nothing: the int32
// field and the worklist are retained across searches like every other
// Scratch resource.
func (s *Scratch) prepBounds(p *Problem) *Bounds {
	b := &s.bounds
	if n := p.Grid.NumNodes(); cap(b.distSrc) < n {
		b.distSrc = make([]int32, n)
	} else {
		b.distSrc = b.distSrc[:n]
	}
	b.maxSrc = b.bfs(p, p.Source, b.distSrc)
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

// segmentReach returns an upper bound on the number of grid edges one
// clocked-to-clocked segment of the given kind can span under period T.
// The segment starts from a register (or, when the FIFO opens the kind —
// GALS's source domain — the componentwise-min seed over both) and a state
// stays viable while its delay potential d + R·c can still fit under
// T − K, with (K, R) the kind's closing values: exactly RBP's lookahead
// theorem. Every continuation's closing delay is at least K + that
// potential, monotonically in edges and gates, so states failing the test
// belong to no closeable segment — and states of any kernel-closeable
// segment pass it. The DP runs along an ideal line with buffers available
// at every step; a real grid segment threads obstacles that only remove
// buffer options, so its span can never exceed the ideal one. The reach is
// capped at maxReach edges (distances beyond the grid's diameter never
// matter), so huge periods cost O(maxReach) instead of exploding.
func segmentReach(m *elmore.Model, T float64, maxReach int, kind segKind) int {
	k, _ := closing(m.Tech(), kind == fifoClosedSeg)
	limit := T - k
	c := curvesFor(m).curve(m, reachTable, kind, limit, maxReach)
	reach := 0
	for n := 1; n <= maxReach && c.at(n) <= limit; n++ {
		reach = n
	}
	return reach
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
// segment, FastPath's single source-to-sink segment under its incumbent,
// or the latch router's chain to the source under its launch edge. A
// candidate (c, d) that must still cross need edges of its current
// segment before the segment closes is doomed when
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

// openSeg is the segment bound without a limit: under a span of the
// source's BFS radius (need ≤ 0 everywhere) it prunes only unreachable
// nodes. FastPath without an incumbent and the latch router use it.
var openSeg = segBound{rem: []float64{0}, limit: math.Inf(1)}

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
// The segment opens from the register, a buffer or a latch (or the FIFO
// when the FIFO opens the kind) and closes into the register (or the FIFO
// when the FIFO closes it). tech.Latch is the register under another
// name, so a latch adds no capacitance or resistance of its own.
func newSegBound(tc *tech.Tech, limit float64, kind segKind) segBound {
	sb := segBound{cmin: tc.Register.C, limit: limit}
	_, sb.slope = closing(tc, kind == fifoClosedSeg)
	for _, bu := range tc.Buffers {
		sb.cmin = math.Min(sb.cmin, bu.C)
	}
	if kind == fifoOpenedSeg {
		sb.cmin = math.Min(sb.cmin, tc.FIFO.C)
	}
	return sb
}

// segBound returns the bound of one segment kind (see newSegBound) with
// its remainder table copied into the pooled slot from the model's curve.
// The sweep drops ideal states whose delay potential d + slope·c + K
// already exceeds limit: their closes exceed it too, so they cannot lower
// an entry a prune test compares against limit. The table is nondecreasing
// in the edge count — the seed dominates every state one edge from it, so
// dropping a labeling's first edge never costs more — hence rem[k] for
// k ≤ reach already covers completions longer than reach, and the closing
// suffix-minimum only guards the invariant. A caller's reach bounds every
// need it asks about: a segment's span, or FastPath's BFS radius.
func (b *Bounds) segBound(slot int, m *elmore.Model, limit float64, reach int, kind segKind) segBound {
	sb := newSegBound(m.Tech(), limit, kind)
	c := curvesFor(m).curve(m, remTable, kind, limit, reach)
	b.rem[slot] = copyTable(b.rem[slot], c, reach)
	raw := b.rem[slot]
	for k := reach - 1; k >= 0; k-- {
		raw[k] = math.Min(raw[k], raw[k+1])
	}
	sb.rem = raw
	return sb
}

// copyTable copies entries 0..n of c into dst, growing it when needed.
func copyTable(dst []float64, c *curve, n int) []float64 {
	if cap(dst) < n+1 {
		dst = make([]float64, n+1)
	}
	dst = dst[:n+1]
	for k := range dst {
		dst[k] = c.at(k)
	}
	return dst
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
// arrival key, its increment table for up to reach edges copied into the
// pooled slot from the model's curve. fifoOpens makes the FIFO open the
// domain's segments as well as the register (GALS z=1).
func (b *Bounds) keyBound(m *elmore.Model, key float64, reach int, fifoOpens bool) keyBound {
	tc := m.Tech()
	kb := keyBound{limit: key + boundEps(key)}
	setup := tc.Register.Setup
	if fifoOpens {
		setup = math.Min(setup, tc.FIFO.Setup)
	}
	c := curvesFor(m).curve(m, keyTable, kindOf(fifoOpens, false), kb.limit, reach)
	b.keyAdd = copyTable(b.keyAdd, c, reach)
	add := b.keyAdd
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
//
// FastPath and the latch router have no latency budget to split: flat is
// then the bound state of every wave. deadline is the latch router's
// deadline test (latchSeg), in place of the key test.
type spanBound struct {
	b        *Bounds
	s        *scheme
	seg      [2]segBound
	reach    [2]int
	lat      float64 // the incumbent's latency; +Inf without one
	maxLat   float64 // lat plus latencyEps
	key      keyBound
	deadline segBound
	flat     *waveBound
}

// waveBound is the bound state of one wave: each domain's span (spans),
// and for each domain whether its candidates also face the key test —
// only the accepting domain's, and only in the probe's own wave — or,
// for the latch router, the deadline test in every wave.
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
//
// FastPath's one segment must close within the probe's delay from
// wherever a candidate stands: its flat span is 0 under that incumbent's
// delay table, and without an incumbent only unreachable nodes are
// pruned. The latch router runs no probe: every wave tests the deadline
// (latchBound).
func (s *scheme) bound(p *Problem, opts Options, sc *Scratch) (*spanBound, int, error) {
	b := sc.prepBounds(p)
	g := &spanBound{b: b, s: s, lat: math.Inf(1), maxLat: math.Inf(1)}
	if s.latch != nil {
		g.seg[0], g.flat = openSeg, &waveBound{span: [2]int{int(b.maxSrc)}, keyed: [2]bool{true}}
		g.deadline = latchBound(b, p.Model, -s.latch.launch)
		return g, 0, nil
	}
	inc, probeConfigs, err := sc.probe(p, opts, func(o Options, win *nodeFlags) (*Result, error) {
		return search(p, s, o, sc, win, nil)
	})
	if err != nil {
		return nil, 0, err
	}
	if s.queue == oneWave {
		g.seg[0], g.flat = openSeg, &waveBound{span: [2]int{int(b.maxSrc)}}
		if inc != nil {
			g.seg[0] = b.segBound(0, p.Model, inc.Latency+boundEps(inc.Latency), int(b.maxSrc), plainSeg)
			g.flat.span[0] = 0
		}
		return g, probeConfigs, nil
	}
	for z, d := range s.dom[:s.nd] {
		g.reach[z] = segmentReach(p.Model, d.T, int(b.maxSrc), kindOf(z > 0, z+1 < s.nd))
	}
	if inc != nil {
		g.lat, g.maxLat = inc.Latency, inc.Latency+latencyEps
	}
	for z, d := range s.dom[:s.nd] {
		g.seg[z] = b.segBound(z, p.Model, d.T+boundEps(d.T), g.reach[z], kindOf(z > 0, z+1 < s.nd))
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
// and grows with d. Without a key table the wave is keyed only under the
// latch scheme, whose deadline test (latchBound) grows with c too and
// shrinks with the candidate's deadline slack: segBound's test on
// (c, d − slack) at need = dist, which lies within the table, so written
// without prune's clamps. Callers run it after prune, which rejects
// unreachable nodes; the two stay separate so each inlines into the
// kernel's admission test.
func (g *spanBound) keyPrune(v int32, c, d, slack float64) bool {
	dist := int(g.b.distSrc[v])
	if g.key.add == nil {
		dl := &g.deadline
		return d-slack+dl.slope*(c-dl.cmin)+dl.rem[dist] > dl.limit
	}
	return g.key.prune(d, dist)
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
