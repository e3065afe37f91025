package route

import (
	"math"
	"strings"
	"testing"

	"clockroute/internal/candidate"
	"clockroute/internal/elmore"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/tech"
)

const (
	gNone = candidate.GateNone
	gReg  = candidate.GateRegister
	gFIFO = candidate.GateFIFO
	gBuf  = candidate.Gate(0)
)

func testModel(t *testing.T) *elmore.Model {
	t.Helper()
	return elmore.MustNewModel(tech.CongPan70nm(), 0.125)
}

// linePath builds a horizontal path on g from (0,y) to (n,y) with the given
// gate at selected offsets.
func linePath(g *grid.Grid, y, n int, gates map[int]candidate.Gate) *Path {
	p := &Path{}
	for x := 0; x <= n; x++ {
		p.Nodes = append(p.Nodes, g.ID(geom.Pt(x, y)))
		gt, ok := gates[x]
		if !ok {
			gt = gNone
		}
		p.Gates = append(p.Gates, gt)
	}
	p.Gates[0] = gReg
	p.Gates[n] = gReg
	return p
}

func TestElemOf(t *testing.T) {
	tc := tech.CongPan70nm()
	if ElemOf(tc, gBuf).Name != "buf100x" {
		t.Error("buffer lookup failed")
	}
	if ElemOf(tc, gReg).Kind != tech.KindRegister {
		t.Error("register lookup failed")
	}
	if ElemOf(tc, gFIFO).Kind != tech.KindFIFO {
		t.Error("FIFO lookup failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("ElemOf(GateNone) should panic")
		}
	}()
	ElemOf(tc, gNone)
}

func TestFromCandidateReconstruction(t *testing.T) {
	// Chain built sink-out: t=node 0, edge to 1, buffer at 1, edge to 2,
	// register at 2, edge to 3 (=source). Final candidate is at node 3.
	var a candidate.Arena
	init := a.New(candidate.Candidate{Node: 0, Gate: gReg})
	e1 := a.New(candidate.Candidate{Node: 1, Gate: gNone, Parent: init})
	b1 := a.New(candidate.Candidate{Node: 1, Gate: gBuf, Parent: e1})
	e2 := a.New(candidate.Candidate{Node: 2, Gate: gNone, Parent: b1})
	r2 := a.New(candidate.Candidate{Node: 2, Gate: gReg, Parent: e2})
	e3 := a.New(candidate.Candidate{Node: 3, Gate: gNone, Parent: r2})

	p := FromCandidate(&a, e3, gReg, gReg)
	wantNodes := []int{3, 2, 1, 0}
	wantGates := []candidate.Gate{gReg, gReg, gBuf, gReg}
	if len(p.Nodes) != 4 {
		t.Fatalf("nodes = %v", p.Nodes)
	}
	for i := range wantNodes {
		if p.Nodes[i] != wantNodes[i] || p.Gates[i] != wantGates[i] {
			t.Fatalf("step %d = (%d,%d), want (%d,%d)", i, p.Nodes[i], p.Gates[i], wantNodes[i], wantGates[i])
		}
	}
	if p.Len() != 3 || p.Source() != 3 || p.Sink() != 0 {
		t.Errorf("Len/Source/Sink = %d/%d/%d", p.Len(), p.Source(), p.Sink())
	}
}

func TestCounts(t *testing.T) {
	g := grid.MustNew(20, 3, 0.125)
	p := linePath(g, 1, 12, map[int]candidate.Gate{3: gBuf, 6: gReg, 9: gFIFO, 11: gBuf})
	if p.NumBuffers() != 2 {
		t.Errorf("NumBuffers = %d", p.NumBuffers())
	}
	if p.NumRegisters() != 1 {
		t.Errorf("NumRegisters = %d (FIFO and endpoints excluded)", p.NumRegisters())
	}
	if p.FIFOIndex() != 9 {
		t.Errorf("FIFOIndex = %d", p.FIFOIndex())
	}
	regS, regT := p.RegistersBySide()
	if regS != 1 || regT != 0 {
		t.Errorf("RegistersBySide = %d,%d want 1,0", regS, regT)
	}
}

func TestRegistersBySideNoFIFO(t *testing.T) {
	g := grid.MustNew(20, 3, 0.125)
	p := linePath(g, 1, 10, map[int]candidate.Gate{4: gReg, 7: gReg})
	regS, regT := p.RegistersBySide()
	if regS != 0 || regT != 2 {
		t.Errorf("RegistersBySide = %d,%d want 0,2", regS, regT)
	}
}

func TestSeparations(t *testing.T) {
	g := grid.MustNew(30, 3, 0.125)
	p := linePath(g, 1, 20, map[int]candidate.Gate{5: gReg, 8: gBuf, 15: gReg})
	rs, ok := p.RegisterSeparation()
	if !ok || rs.Min != 5 || rs.Max != 10 {
		t.Errorf("RegisterSeparation = %+v ok=%v, want min 5 max 10", rs, ok)
	}
	es, ok := p.ElementSeparation()
	if !ok || es.Min != 3 || es.Max != 7 {
		t.Errorf("ElementSeparation = %+v ok=%v, want min 3 max 7", es, ok)
	}
}

func TestSeparationSingleSegment(t *testing.T) {
	g := grid.MustNew(10, 3, 0.125)
	p := linePath(g, 1, 5, nil)
	if _, ok := p.RegisterSeparation(); ok {
		t.Error("single-segment path should report ok=false")
	}
}

func TestStringRendering(t *testing.T) {
	g := grid.MustNew(10, 3, 0.125)
	p := linePath(g, 1, 4, map[int]candidate.Gate{1: gBuf, 2: gFIFO, 3: gReg})
	if got := p.String(); got != "R-b0-F-R-R" {
		t.Errorf("String = %q", got)
	}
}

func TestCheckStructure(t *testing.T) {
	g := grid.MustNew(20, 5, 0.125)
	good := linePath(g, 2, 10, map[int]candidate.Gate{5: gReg})
	if err := good.CheckStructure(g); err != nil {
		t.Fatalf("good path rejected: %v", err)
	}

	// Non-adjacent jump.
	jump := linePath(g, 2, 10, nil)
	jump.Nodes[5] = g.ID(geom.Pt(5, 4))
	if err := jump.CheckStructure(g); err == nil || !strings.Contains(err.Error(), "live edge") {
		t.Errorf("jump err = %v", err)
	}

	// Path through a cut edge.
	g2 := g.Clone()
	g2.AddWiringBlockage(geom.R(5, 2, 6, 3))
	if err := good.CheckStructure(g2); err == nil {
		t.Error("path across wiring blockage must be rejected")
	}

	// Gate on a physical obstacle.
	g3 := g.Clone()
	g3.AddObstacle(geom.R(5, 2, 6, 3))
	if err := good.CheckStructure(g3); err == nil || !strings.Contains(err.Error(), "blocked node") {
		t.Errorf("obstacle err = %v", err)
	}

	// Register on a register blockage; buffers stay fine.
	g4 := g.Clone()
	g4.AddRegisterBlockage(geom.R(5, 2, 6, 3))
	if err := good.CheckStructure(g4); err == nil {
		t.Error("register on register blockage must be rejected")
	}
	bufPath := linePath(g, 2, 10, map[int]candidate.Gate{5: gBuf})
	if err := bufPath.CheckStructure(g4); err != nil {
		t.Errorf("buffer on register blockage must be allowed: %v", err)
	}

	// Unclocked endpoint.
	bad := linePath(g, 2, 10, nil)
	bad.Gates[0] = gBuf
	if err := bad.CheckStructure(g); err == nil {
		t.Error("unclocked source must be rejected")
	}

	// Degenerate path.
	short := &Path{Nodes: []int{3}, Gates: []candidate.Gate{gReg}}
	if err := short.CheckStructure(g); err == nil {
		t.Error("single-node path must be rejected")
	}
}

func TestSegmentDelaysMatchManual(t *testing.T) {
	m := testModel(t)
	tc := m.Tech()
	g := grid.MustNew(40, 3, 0.125)
	// s(R) --4--> buf --6--> R --8--> t(R)
	p := linePath(g, 1, 18, map[int]candidate.Gate{4: gBuf, 10: gReg})

	r, b := tc.Register, tc.Buffers[0]
	seg1 := m.StageDelay(r, 4, b.C) + m.StageDelay(b, 6, r.C) + r.Setup
	seg2 := m.StageDelay(r, 8, r.C) + r.Setup

	got := p.SegmentDelays(m)
	if len(got) != 2 {
		t.Fatalf("segments = %v", got)
	}
	if math.Abs(got[0]-seg1) > 1e-9 || math.Abs(got[1]-seg2) > 1e-9 {
		t.Errorf("SegmentDelays = %v, want [%g %g]", got, seg1, seg2)
	}
}

func TestVerifySingleClock(t *testing.T) {
	m := testModel(t)
	g := grid.MustNew(40, 3, 0.125)
	p := linePath(g, 1, 16, map[int]candidate.Gate{8: gReg})
	delays := p.SegmentDelays(m)
	worst := math.Max(delays[0], delays[1])

	lat, err := VerifySingleClock(p, g, m, worst+1)
	if err != nil {
		t.Fatalf("feasible path rejected: %v", err)
	}
	if lat != 2*(worst+1) {
		t.Errorf("latency = %g, want %g", lat, 2*(worst+1))
	}

	if _, err := VerifySingleClock(p, g, m, worst-1); err == nil {
		t.Error("infeasible period must be rejected")
	}

	fifoPath := linePath(g, 1, 16, map[int]candidate.Gate{8: gFIFO})
	if _, err := VerifySingleClock(fifoPath, g, m, 1e9); err == nil {
		t.Error("MCFIFO on single-clock path must be rejected")
	}
}

func TestVerifyMultiClock(t *testing.T) {
	m := testModel(t)
	g := grid.MustNew(60, 3, 0.125)
	p := linePath(g, 1, 40, map[int]candidate.Gate{10: gReg, 20: gFIFO, 30: gReg})
	d := p.SegmentDelays(m)
	if len(d) != 4 {
		t.Fatalf("want 4 segments, got %v", d)
	}
	// Source side = segments 0,1 (up to and including the FIFO); sink side = 2,3.
	Ts := math.Max(d[0], d[1]) + 1
	Tt := math.Max(d[2], d[3]) + 1

	lat, err := VerifyMultiClock(p, g, m, Ts, Tt)
	if err != nil {
		t.Fatalf("feasible multi-clock path rejected: %v", err)
	}
	if want := Ts*2 + Tt*2; math.Abs(lat-want) > 1e-9 {
		t.Errorf("latency = %g, want %g", lat, want)
	}

	// Swap in a too-small source period: must fail even if Tt is large.
	if _, err := VerifyMultiClock(p, g, m, math.Min(d[0], d[1])-1, 1e9); err == nil {
		t.Error("source-side violation must be detected")
	}
	if _, err := VerifyMultiClock(p, g, m, 1e9, math.Min(d[2], d[3])-1); err == nil {
		t.Error("sink-side violation must be detected")
	}

	// Zero FIFOs.
	noFIFO := linePath(g, 1, 40, map[int]candidate.Gate{20: gReg})
	if _, err := VerifyMultiClock(noFIFO, g, m, 1e9, 1e9); err == nil {
		t.Error("path without MCFIFO must be rejected")
	}
	// Two FIFOs.
	twoFIFO := linePath(g, 1, 40, map[int]candidate.Gate{15: gFIFO, 25: gFIFO})
	if _, err := VerifyMultiClock(twoFIFO, g, m, 1e9, 1e9); err == nil {
		t.Error("path with two MCFIFOs must be rejected")
	}
}

func TestVerifySegmentEndingAtFIFOUsesSourcePeriod(t *testing.T) {
	m := testModel(t)
	g := grid.MustNew(60, 3, 0.125)
	// Single register-free source side: s --20--> F --10--> t.
	p := linePath(g, 1, 30, map[int]candidate.Gate{20: gFIFO})
	d := p.SegmentDelays(m)
	if len(d) != 2 {
		t.Fatalf("want 2 segments, got %v", d)
	}
	// Ts only just covers the long source segment; Tt covers the short one.
	if _, err := VerifyMultiClock(p, g, m, d[0]+1, d[1]+1); err != nil {
		t.Fatalf("boundary path rejected: %v", err)
	}
	// If the segment ending at the FIFO were charged to Tt, this would pass;
	// it must fail because that segment belongs to the source domain.
	if _, err := VerifyMultiClock(p, g, m, d[0]-1, d[0]+d[1]); err == nil {
		t.Error("segment ending at the FIFO must be constrained by Ts")
	}
}
