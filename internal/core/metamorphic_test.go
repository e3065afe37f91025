package core

// Metamorphic invariance suite: transformations of a routing instance with
// a known relation to the original — translation inside a larger grid,
// axis mirroring, blockage-list permutation and duplication, and
// source/sink exchange on point-symmetric instances — must transform the
// result in the predicted way. Unlike the oracle sweeps these tests need
// no second implementation: the kernel is checked against itself, so they
// catch exactly the class of bug the differential tests cannot — hidden
// dependence on node numbering, blockage insertion order, or absolute grid
// position (the admissible-bound precompute walks the grid in node order,
// which makes this suite the designated tripwire for bounds.go).
//
// Two strengths of assertion are used, matching what each transformation
// preserves bitwise:
//
//   - Translation and blockage permutation preserve the entire float-op
//     sequence of the search (relative node order is unchanged), so the
//     full result — values, path shape, and effort counters — must match
//     exactly.
//   - Mirroring and endpoint exchange reorder node IDs non-monotonically,
//     so heap ties break differently and a different co-optimal path may
//     be returned; only the optimal objective values are asserted, and
//     those exactly (the transformed optimum is reached by an identical
//     float-op chain).

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"clockroute/internal/geom"
	"clockroute/internal/grid"
)

// metaCase is one randomly drawn instance: an active w×h rectangle with
// blockage rects in active-rect coordinates, endpoints in opposite
// corners, and integer clock periods (integer periods keep latency sums
// exact in float64, so cross-instance comparisons can use ==).
type metaCase struct {
	w, h       int
	pitch      float64
	obstacles  []geom.Rect
	regBlocks  []geom.Rect
	wireBlocks []geom.Rect
	T, Ts, Tt  float64
}

func randomMetaCase(rng *rand.Rand) metaCase {
	mc := metaCase{
		w:     4 + rng.Intn(6),
		h:     4 + rng.Intn(5),
		pitch: []float64{0.25, 0.5, 1.0}[rng.Intn(3)],
		T:     float64(30 + rng.Intn(800)),
		Ts:    float64(30 + rng.Intn(800)),
		Tt:    float64(30 + rng.Intn(800)),
	}
	// Interior blockages only: the corner endpoints must stay legal sites,
	// so rects are clipped to [1, w-1) × [1, h-1).
	draw := func() geom.Rect {
		x := 1 + rng.Intn(mc.w-2)
		y := 1 + rng.Intn(mc.h-2)
		x2, y2 := x+1+rng.Intn(2), y+1+rng.Intn(2)
		if x2 > mc.w-1 {
			x2 = mc.w - 1
		}
		if y2 > mc.h-1 {
			y2 = mc.h - 1
		}
		return geom.R(x, y, x2, y2)
	}
	for i := rng.Intn(3); i > 0; i-- {
		mc.obstacles = append(mc.obstacles, draw())
	}
	for i := rng.Intn(3); i > 0; i-- {
		mc.regBlocks = append(mc.regBlocks, draw())
	}
	if rng.Intn(3) == 0 {
		mc.wireBlocks = append(mc.wireBlocks, draw())
	}
	return mc
}

// buildAt materializes the case on a W×H grid with the active rectangle's
// origin at (ox, oy), walling everything outside it off with wiring
// blockages, and returns the problem with the endpoints at the active
// rectangle's corners.
func (mc metaCase) buildAt(t *testing.T, W, H, ox, oy int) *Problem {
	t.Helper()
	g := grid.MustNew(W, H, mc.pitch)
	// Moat: the complement of the active rect, as four (possibly empty)
	// strips. AddWiringBlockage cuts boundary-crossing edges too, so the
	// active rectangle's interior is isomorphic wherever it sits.
	g.AddWiringBlockage(geom.R(0, 0, W, oy))
	g.AddWiringBlockage(geom.R(0, oy+mc.h, W, H))
	g.AddWiringBlockage(geom.R(0, oy, ox, oy+mc.h))
	g.AddWiringBlockage(geom.R(ox+mc.w, oy, W, oy+mc.h))
	sh := func(r geom.Rect) geom.Rect { return geom.R(r.MinX+ox, r.MinY+oy, r.MaxX+ox, r.MaxY+oy) }
	for _, r := range mc.obstacles {
		g.AddObstacle(sh(r))
	}
	for _, r := range mc.regBlocks {
		g.AddRegisterBlockage(sh(r))
	}
	for _, r := range mc.wireBlocks {
		g.AddWiringBlockage(sh(r))
	}
	return problemOn(t, g, geom.Pt(ox, oy), geom.Pt(ox+mc.w-1, oy+mc.h-1))
}

// metaKernels drives every search kernel; each returns (result, error)
// under default options (admissible bounds on — the suite's main target).
var metaKernels = []struct {
	name string
	run  func(p *Problem, mc metaCase) (*Result, error)
}{
	{"fastpath", func(p *Problem, mc metaCase) (*Result, error) { return FastPath(p, Options{}) }},
	{"rbp", func(p *Problem, mc metaCase) (*Result, error) { return RBP(p, mc.T, Options{}) }},
	{"rbp-slack", func(p *Problem, mc metaCase) (*Result, error) {
		return RBP(p, mc.T, Options{MaximizeSlack: true})
	}},
	{"gals", func(p *Problem, mc metaCase) (*Result, error) { return GALS(p, mc.Ts, mc.Tt, Options{}) }},
}

// metaSnap is the full bitwise summary used by the exact-equality
// transformations. Node IDs are de-shifted so translated instances render
// identical strings.
type metaSnap struct {
	noPath                   bool
	latency, srcDelay, slack float64
	regs, regS, regT, bufs   int
	path                     string
	stats                    Stats
}

func metaSnapOf(t *testing.T, res *Result, err error, shift int) metaSnap {
	t.Helper()
	if err != nil {
		if !errors.Is(err, ErrNoPath) {
			t.Fatalf("unexpected search error: %v", err)
		}
		return metaSnap{noPath: true}
	}
	s := metaSnap{
		latency: res.Latency, srcDelay: res.SourceDelay, slack: res.SlackPS,
		regs: res.Registers, regS: res.RegS, regT: res.RegT, bufs: res.Buffers,
		stats: res.Stats,
	}
	s.stats.Elapsed = 0
	nodes := make([]int, len(res.Path.Nodes))
	for i, n := range res.Path.Nodes {
		nodes[i] = n - shift
	}
	s.path = fmt.Sprint(nodes, res.Path.Gates)
	return s
}

// TestMetamorphicTranslation: the same active rectangle embedded at two
// different offsets of one larger grid must produce bit-identical results
// — values, path (modulo the node-ID shift oy·W+ox), and effort counters.
// Translation preserves relative node order, so even heap tie-breaks and
// therefore every Stats counter must survive the move.
func TestMetamorphicTranslation(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for i := 0; i < 30; i++ {
		mc := randomMetaCase(rng)
		ox, oy := 1+rng.Intn(4), 1+rng.Intn(4)
		W, H := mc.w+5, mc.h+5
		base := mc.buildAt(t, W, H, 0, 0)
		moved := mc.buildAt(t, W, H, ox, oy)
		shift := oy*W + ox
		for _, k := range metaKernels {
			r0, e0 := k.run(base, mc)
			r1, e1 := k.run(moved, mc)
			s0 := metaSnapOf(t, r0, e0, 0)
			s1 := metaSnapOf(t, r1, e1, shift)
			if s0 != s1 {
				t.Errorf("case %d %s: translation by (%d,%d) changed the result\n base %+v\nmoved %+v",
					i, k.name, ox, oy, s0, s1)
			}
		}
	}
}

// mirrorX reflects the case across the vertical axis of the active rect.
func (mc metaCase) mirrorX() metaCase {
	out := mc
	ref := func(rs []geom.Rect) []geom.Rect {
		m := make([]geom.Rect, len(rs))
		for i, r := range rs {
			m[i] = geom.R(mc.w-r.MaxX, r.MinY, mc.w-r.MinX, r.MaxY)
		}
		return m
	}
	out.obstacles, out.regBlocks, out.wireBlocks =
		ref(mc.obstacles), ref(mc.regBlocks), ref(mc.wireBlocks)
	return out
}

// mirrorY reflects the case across the horizontal axis of the active rect.
func (mc metaCase) mirrorY() metaCase {
	out := mc
	ref := func(rs []geom.Rect) []geom.Rect {
		m := make([]geom.Rect, len(rs))
		for i, r := range rs {
			m[i] = geom.R(r.MinX, mc.h-r.MaxY, r.MaxX, mc.h-r.MinY)
		}
		return m
	}
	out.obstacles, out.regBlocks, out.wireBlocks =
		ref(mc.obstacles), ref(mc.regBlocks), ref(mc.wireBlocks)
	return out
}

// metaObjective extracts only the kernel's optimal objective values — the
// part of the result that must survive node renumbering. SourceDelay,
// paths, and counters are legitimately tie-dependent and excluded;
// SlackPS is asserted only where it is an optimized objective.
func metaObjective(t *testing.T, kernel string, res *Result, err error) metaSnap {
	t.Helper()
	if err != nil {
		if !errors.Is(err, ErrNoPath) {
			t.Fatalf("unexpected search error: %v", err)
		}
		return metaSnap{noPath: true}
	}
	s := metaSnap{latency: res.Latency}
	switch kernel {
	case "rbp":
		s.regs = res.Registers
	case "rbp-slack":
		s.regs = res.Registers
		s.slack = res.SlackPS
	case "fastpath":
		s.regs = res.Registers // always 0
	}
	return s
}

// TestMetamorphicMirror: reflecting the instance across either axis maps
// endpoints and blockages consistently, so every kernel's optimal
// objective values must be exactly preserved (the mirrored optimum is
// reached by the identical chain of Elmore operations). The mirrored
// endpoints swap corners within their row/column, exercising all four
// corner orientations of the backward DP.
func TestMetamorphicMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		mc := randomMetaCase(rng)
		base := make([]*Problem, 0, 3)
		// Mirrored endpoints: buildAt pins endpoints to the (ox,oy) and
		// opposite corners, so mirroring the blockages and rebuilding pins
		// them to the *mirrored* corners via a mirrored problem below.
		g0 := mc.buildAt(t, mc.w, mc.h, 0, 0)
		mx := mc.mirrorX()
		my := mc.mirrorY()
		gx := mx.buildProblemMirrored(t, geom.Pt(mc.w-1, 0), geom.Pt(0, mc.h-1))
		gy := my.buildProblemMirrored(t, geom.Pt(0, mc.h-1), geom.Pt(mc.w-1, 0))
		base = append(base, g0, gx, gy)
		for _, k := range metaKernels {
			r0, e0 := k.run(base[0], mc)
			want := metaObjective(t, k.name, r0, e0)
			for vi, p := range base[1:] {
				r1, e1 := k.run(p, mc)
				if got := metaObjective(t, k.name, r1, e1); got != want {
					t.Errorf("case %d %s mirror[%d]: objective changed\nwant %+v\n got %+v",
						i, k.name, vi, want, got)
				}
			}
		}
	}
}

// buildProblemMirrored builds the active rect at the origin with explicit
// endpoint positions (used by the mirror test, whose endpoints are not at
// the default corners).
func (mc metaCase) buildProblemMirrored(t *testing.T, s, d geom.Point) *Problem {
	t.Helper()
	g := grid.MustNew(mc.w, mc.h, mc.pitch)
	for _, r := range mc.obstacles {
		g.AddObstacle(r)
	}
	for _, r := range mc.regBlocks {
		g.AddRegisterBlockage(r)
	}
	for _, r := range mc.wireBlocks {
		g.AddWiringBlockage(r)
	}
	return problemOn(t, g, s, d)
}

// TestMetamorphicBlockagePermutation: applying the same blockage set in a
// shuffled order, with random rects duplicated, must build a byte-identical
// grid and therefore a bit-identical result — full snap including effort
// counters. Guards against order-dependence in grid construction and
// against the bounds precompute caching anything keyed on insertion order.
func TestMetamorphicBlockagePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < 30; i++ {
		mc := randomMetaCase(rng)
		perm := mc
		shuffle := func(rs []geom.Rect) []geom.Rect {
			out := append([]geom.Rect(nil), rs...)
			rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
			for _, r := range rs { // duplicates must be no-ops
				if rng.Intn(2) == 0 {
					out = append(out, r)
				}
			}
			return out
		}
		perm.obstacles = shuffle(mc.obstacles)
		perm.regBlocks = shuffle(mc.regBlocks)
		perm.wireBlocks = shuffle(mc.wireBlocks)
		p0 := mc.buildAt(t, mc.w, mc.h, 0, 0)
		p1 := perm.buildAt(t, mc.w, mc.h, 0, 0)
		for _, k := range metaKernels {
			r0, e0 := k.run(p0, mc)
			r1, e1 := k.run(p1, mc)
			s0 := metaSnapOf(t, r0, e0, 0)
			s1 := metaSnapOf(t, r1, e1, 0)
			if s0 != s1 {
				t.Errorf("case %d %s: blockage permutation changed the result\nwant %+v\n got %+v",
					i, k.name, s0, s1)
			}
		}
	}
}

// TestMetamorphicEndpointSwap: on instances whose blockage set is closed
// under 180° rotation the rotation maps the source onto the sink, so
// exchanging the endpoints (and, for GALS, the two periods) must preserve
// the optimal objective values: any labeling of a path maps to the
// mirrored labeling of the reversed path with the identical op chain.
func TestMetamorphicEndpointSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(1717))
	for i := 0; i < 30; i++ {
		mc := randomMetaCase(rng)
		rot := func(r geom.Rect) geom.Rect {
			return geom.R(mc.w-r.MaxX, mc.h-r.MaxY, mc.w-r.MinX, mc.h-r.MinY)
		}
		symmetrize := func(rs []geom.Rect) []geom.Rect {
			out := append([]geom.Rect(nil), rs...)
			for _, r := range rs {
				out = append(out, rot(r))
			}
			return out
		}
		mc.obstacles = symmetrize(mc.obstacles)
		mc.regBlocks = symmetrize(mc.regBlocks)
		mc.wireBlocks = symmetrize(mc.wireBlocks)

		fwd := mc.buildProblemMirrored(t, geom.Pt(0, 0), geom.Pt(mc.w-1, mc.h-1))
		rev := mc.buildProblemMirrored(t, geom.Pt(mc.w-1, mc.h-1), geom.Pt(0, 0))
		swapped := mc
		swapped.Ts, swapped.Tt = mc.Tt, mc.Ts
		for _, k := range metaKernels {
			r0, e0 := k.run(fwd, mc)
			r1, e1 := k.run(rev, swapped)
			want := metaObjective(t, k.name, r0, e0)
			got := metaObjective(t, k.name, r1, e1)
			if want != got {
				t.Errorf("case %d %s: endpoint swap changed the objective\nwant %+v\n got %+v",
					i, k.name, want, got)
			}
		}
	}
}
