package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"clockroute/internal/elmore"
	"clockroute/internal/tech"
)

// Per-model curves. The segment reach, the segBound remainder tables and
// the keyBound increment table are ideal-line sweeps whose only inputs are
// the element library, the wire RC per grid edge, a viability limit (a
// period, or FastPath's incumbent) and a length (a reach, or the BFS
// radius). The library and the wire are fixed per technology model, so
// each sweep runs once per model, table and segment kind, at the largest
// limit and length requested so far, and a search reads its reach from the
// resulting curve and copies its tables out of it in O(reach).
//
// Why a curve swept at a looser limit answers exactly: a state's potential
// d + slope·c + offset never falls along a line (an edge adds to c and d, and
// a gate's R is at least the slope), so a state the looser limit keeps but
// the search's own limit drops lies above that limit, as do all its
// descendants. Dominating a state within the limit would put it within the
// limit too, so it dominates none of them, and each step's frontier within
// the limit is the frontier the search's own sweep would build. Every
// recorded value is at least its state's potential, in floating point too
// (line.value). So table entries at or below the search's limit are
// bit-identical, entries above it stay above it, and the prune and reach
// decisions, which compare entries against that limit, do not move.
// DESIGN.md ("Per-model curves") carries the argument.

// segKind is the kind of a clocked segment: whether the FIFO may open it
// (GALS's source domain) and whether it may close it (GALS's sink domain).
// RBP's segments and FastPath's single segment are the plain kind. The
// latch kind is the plain kind with the latch among the repeaters: the
// latch router's deadline test prices every edge left to the source with
// it (latch.go).
type segKind uint8

const (
	plainSeg      segKind = iota // opened and closed by the register (or a buffer)
	fifoClosedSeg                // GALS z=0: the FIFO may close it
	fifoOpenedSeg                // GALS z=1: the FIFO may open it
	latchSeg                     // latch router: a latch may repeat the signal too
	numSegKinds
)

func kindOf(fifoOpens, fifoCloses bool) segKind {
	switch {
	case fifoOpens:
		return fifoOpenedSeg
	case fifoCloses:
		return fifoClosedSeg
	}
	return plainSeg
}

// The tables a curve set holds per segment kind.
const (
	reachTable = iota // the most edges one segment can span (segmentReach)
	remTable          // segBound's least closing delay over k more edges
	keyTable          // keyBound's least key increment over k more edges
	numTables
)

// closing returns the least intrinsic delay K and drive resistance R of
// whatever drives a candidate of a segment: a buffer, or an element that
// closes the segment — the register, and the FIFO when fifoCloses. (K, R)
// set a domain's feasibility look-ahead, its segment reach and its delay
// table's slope.
func closing(tc *tech.Tech, fifoCloses bool) (k, r float64) {
	k, r = tc.Register.K, tc.MinBufferR()
	if fifoCloses {
		k, r = math.Min(k, tc.FIFO.K), math.Min(r, tc.FIFO.R)
	}
	return k, r
}

// closer is one element that may end a line: it drives the state's load.
type closer struct{ K, R float64 }

// line is one ideal-line Pareto DP: from seed (step 0), each step crosses
// one edge and may then insert one repeater (a library buffer, or on the
// latch line the latch as well). A state stays while its potential
// d + slope·c + offset is within the sweep's limit, and each step records
// the least min over closers of d + K + R·c over its frontier.
type line struct {
	seed          segState
	slope, offset float64
	closers       []closer
	repeaters     []tech.Element
}

// potential is the quantity a sweep holds within its limit.
func (l *line) potential(s segState) float64 { return s.d + l.slope*s.c + l.offset }

// value is the least close of s over the line's closers, rounded in the
// kernel's own order (elmore.DriveInto). Every closer's and repeater's R
// is at least the slope and every closer's K at least the offset, and each
// product and sum rounds monotonically, so a value is never below its
// state's potential.
func (l *line) value(s segState) float64 {
	v := s.d + l.closers[0].R*s.c + l.closers[0].K
	for _, cl := range l.closers[1:] {
		v = math.Min(v, s.d+cl.R*s.c+cl.K)
	}
	return v
}

// curve is one line swept for n steps at limit: rec[k] is the least value
// over step k's frontier, +Inf where the frontier is empty. A curve is
// immutable once published.
type curve struct {
	limit float64
	n     int
	done  bool // the frontier emptied within n steps: every later entry is +Inf too
	rec   []float64
}

// covers reports whether c answers a request at limit for n steps.
func (c *curve) covers(limit float64, n int) bool {
	return c != nil && c.limit >= limit && (n <= c.n || c.done)
}

// at returns rec[k], +Inf past the swept steps of a done curve.
func (c *curve) at(k int) float64 {
	if k < len(c.rec) {
		return c.rec[k]
	}
	return math.Inf(1)
}

// sweep runs l's DP for up to n steps at limit. This is the one sweep
// behind every table.
func (l *line) sweep(m *elmore.Model, limit float64, n int) *curve {
	c := &curve{limit: limit, n: n, rec: make([]float64, n+1)}
	for k := range c.rec {
		c.rec[k] = math.Inf(1)
	}
	viable := func(s segState) bool { return l.potential(s) <= limit }
	var cur, next []segState
	if viable(l.seed) {
		cur = append(cur, l.seed)
	}
	for k := 0; len(cur) > 0; k++ {
		for _, s := range cur {
			c.rec[k] = math.Min(c.rec[k], l.value(s))
		}
		if k == n {
			return c
		}
		next = next[:0]
		for _, s := range cur {
			c2, d2 := m.AddEdge(s.c, s.d)
			if e := (segState{c2, d2}); viable(e) {
				next = appendState(next, e)
			}
			for _, r := range l.repeaters {
				cg, dg := m.AddGate(r, c2, d2)
				if g := (segState{cg, dg}); viable(g) {
					next = appendState(next, g)
				}
			}
		}
		cur, next = next, cur
	}
	c.done = true
	return c
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

// libKey is the electrical identity of a model: every value a sweep reads.
// Models are compared by value, not by pointer, because the service and
// the planner build a fresh Model per request or per wire width.
type libKey struct {
	edgeR, edgeC float64
	reg, fifo    elec
	bufs         []elec
}

// elec is the electrical part of a tech.Element.
type elec struct{ R, C, K, Setup float64 }

func elecOf(e tech.Element) elec { return elec{e.R, e.C, e.K, e.Setup} }

// matches reports whether m has exactly k's electrical values.
func (k *libKey) matches(m *elmore.Model) bool {
	tc := m.Tech()
	if m.EdgeR() != k.edgeR || m.EdgeC() != k.edgeC || elecOf(tc.Register) != k.reg ||
		elecOf(tc.FIFO) != k.fifo || len(tc.Buffers) != len(k.bufs) {
		return false
	}
	for i, b := range tc.Buffers {
		if elecOf(b) != k.bufs[i] {
			return false
		}
	}
	return true
}

// curveSet holds one model's lines and their curves, per table and
// segment kind.
type curveSet struct {
	lib    libKey
	lines  [numTables][numSegKinds]line
	curves [numTables][numSegKinds]atomic.Pointer[curve]
}

func newCurveSet(m *elmore.Model) *curveSet {
	tc := m.Tech()
	reg, fifo := tc.Register, tc.FIFO
	cs := &curveSet{lib: libKey{edgeR: m.EdgeR(), edgeC: m.EdgeC(), reg: elecOf(reg), fifo: elecOf(fifo)}}
	for _, b := range tc.Buffers {
		cs.lib.bufs = append(cs.lib.bufs, elecOf(b))
	}
	bufs := slices.Clone(tc.Buffers)
	for k := plainSeg; k < latchSeg; k++ {
		opens, closes := k == fifoOpenedSeg, k == fifoClosedSeg
		K, R := closing(tc, closes)
		// The reach line starts at the register (or the componentwise
		// minimum over it and the FIFO) and records its potential, the
		// look-ahead's d + R·c.
		start := segState{reg.C, reg.Setup}
		if opens {
			start = segState{math.Min(start.c, fifo.C), math.Min(start.d, fifo.Setup)}
		}
		cs.lines[reachTable][k] = line{seed: start, slope: R, closers: []closer{{0, R}}, repeaters: bufs}
		// The delay and key tables start at (cmin, 0); the delay table closes
		// into the register or the FIFO, the key table records d.
		seed := segState{newSegBound(tc, 0, k).cmin, 0}
		closers := []closer{{reg.K, reg.R}}
		if closes {
			closers = append(closers, closer{fifo.K, fifo.R})
		}
		cs.lines[remTable][k] = line{seed: seed, slope: R, offset: K, closers: closers, repeaters: bufs}
		cs.lines[keyTable][k] = line{seed: seed, closers: []closer{{0, 0}}, repeaters: bufs}
	}
	// The latch line is the plain delay line with the latch among the
	// repeaters. tech.Latch is the register under another name, so the
	// library key already covers it. The latch router reads no reach or
	// key table, so the latch kind has no other line.
	cs.lines[remTable][latchSeg] = cs.lines[remTable][plainSeg]
	cs.lines[remTable][latchSeg].repeaters = append(slices.Clip(bufs), tc.Latch())
	return cs
}

// curve returns table t's curve of segment kind k covering limit and n
// steps, sweeping a new one at the largest limit and length requested so
// far when the published curve falls short. A NaN limit prunes everything
// and is swept privately, never published: no later limit would compare
// at or below it.
func (cs *curveSet) curve(m *elmore.Model, t int, k segKind, limit float64, n int) *curve {
	slot := &cs.curves[t][k]
	old := slot.Load()
	if old.covers(limit, n) {
		return old
	}
	if math.IsNaN(limit) {
		return cs.lines[t][k].sweep(m, limit, n)
	}
	if old != nil {
		limit, n = math.Max(limit, old.limit), max(n, old.n)
	}
	c := cs.lines[t][k].sweep(m, limit, n)
	slot.CompareAndSwap(old, c) // a concurrent grower's curve is as exact
	return c
}

// maxCurveSets bounds the models whose curves are kept; the least recently
// used set is dropped beyond it. Each wire width is its own model: a
// planner net sweeps up to api.MaxWireWidths (16) widths and the plan's
// other nets run on its nominal model, net after net. A least-recently-used
// cache smaller than that ladder misses on every lookup of such a plan, so
// the bound holds two full ladders: one plan's, and another client's plan
// or technology beside it. A set holds ten curves of at most one entry per
// edge of the longest BFS radius asked for.
// TestCurveCacheCoversAPIWidthLadders ties the bound to the API's limit.
const maxCurveSets = 2 * (1 + 16)

var curveCache struct {
	mu   sync.Mutex
	sets []*curveSet // most recently used first
}

// curvesFor returns the curve set of m's electrical values, creating it on
// first use.
func curvesFor(m *elmore.Model) *curveSet {
	curveCache.mu.Lock()
	defer curveCache.mu.Unlock()
	sets := curveCache.sets
	for i, cs := range sets {
		if cs.lib.matches(m) {
			copy(sets[1:i+1], sets[:i])
			sets[0] = cs
			return cs
		}
	}
	cs := newCurveSet(m)
	if len(sets) < maxCurveSets {
		sets = append(sets, nil)
	}
	copy(sets[1:], sets)
	sets[0] = cs
	curveCache.sets = sets
	return cs
}
