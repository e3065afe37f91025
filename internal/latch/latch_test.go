package latch

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"clockroute/internal/core"
	"clockroute/internal/elmore"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/tech"
)

func problemOn(t *testing.T, g *grid.Grid, s, tt geom.Point) *core.Problem {
	t.Helper()
	m := elmore.MustNewModel(tech.CongPan70nm(), g.PitchMM())
	p, err := core.NewProblem(g, m, g.ID(s), g.ID(tt))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func latchElem() tech.Element { return tech.CongPan70nm().Latch() }

func TestRouteValidation(t *testing.T) {
	g := grid.MustNew(11, 3, 0.5)
	p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(10, 1))
	if _, err := Route(p, 0, latchElem(), 0, core.Options{}); err == nil {
		t.Error("T=0 must fail")
	}
	reg := tech.CongPan70nm().Register
	if _, err := Route(p, 300, reg, 0, core.Options{}); err == nil {
		t.Error("non-latch element must fail")
	}
}

func TestRouteOpenLineMatchesVerifier(t *testing.T) {
	g := grid.MustNew(41, 3, 0.5) // 20 mm
	p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(40, 1))
	for _, T := range []float64{250, 400, 700, 1500} {
		res, err := Route(p, T, latchElem(), 0, core.Options{})
		if err != nil {
			t.Fatalf("T=%g: %v", T, err)
		}
		if err := Verify(res.Path, g, p.Model, T, res.Cycles); err != nil {
			t.Fatalf("T=%g: verifier rejected: %v", T, err)
		}
		if res.LatencyPS != float64(res.Cycles)*T {
			t.Errorf("T=%g: latency %g != %d cycles", T, res.LatencyPS, res.Cycles)
		}
		if res.Latches != res.Path.NumLatches() {
			t.Errorf("T=%g: latch count mismatch", T)
		}
		if res.Stats.Elapsed <= 0 {
			t.Errorf("T=%g: Stats.Elapsed unset — PlanStats/telemetry aggregation depends on it", T)
		}
	}
}

func TestLatchLatencyNeverWorseThanRBP(t *testing.T) {
	// A register solution can always be emulated with latches (each
	// register's capture is a latch closing at the same boundary with a
	// full half-period of transparency before it), so the latch optimum is
	// at most the RBP optimum.
	configs := []func(*grid.Grid){
		func(*grid.Grid) {},
		func(g *grid.Grid) { g.AddObstacle(geom.R(10, 0, 25, 2)) },
		func(g *grid.Grid) { g.AddRegisterBlockage(geom.R(8, 0, 20, 3)) },
	}
	for ci, setup := range configs {
		g := grid.MustNew(41, 3, 0.5)
		setup(g)
		p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(40, 1))
		for _, T := range []float64{300, 500, 900} {
			rbp, errR := core.RBP(p, T, core.Options{})
			lat, errL := Route(p, T, latchElem(), 0, core.Options{})
			if errR != nil {
				continue // RBP infeasible: nothing to compare (latch may still route)
			}
			if errL != nil {
				t.Errorf("cfg %d T=%g: RBP feasible but latch routing failed: %v", ci, T, errL)
				continue
			}
			if lat.LatencyPS > rbp.Latency+1e-6 {
				t.Errorf("cfg %d T=%g: latch latency %g worse than RBP %g",
					ci, T, lat.LatencyPS, rbp.Latency)
			}
		}
	}
}

func TestLatchBeatsRBPViaTimeBorrowing(t *testing.T) {
	// Clocked sites exist only at the quarter points of a 20 mm line
	// (x=10 and x=30 on 40 edges), so the stage delays are roughly
	// (0.5T, T, 0.5T) at a period near half the total delay. Registers
	// must use both sites (one site leaves a segment > T), paying 3 cycles;
	// latches at both sites borrow the middle stage across the half-cycle
	// boundary and finish in 2.
	g := grid.MustNew(41, 1, 0.5)
	g.AddRegisterBlockage(geom.R(1, 0, 10, 1))
	g.AddRegisterBlockage(geom.R(11, 0, 30, 1))
	g.AddRegisterBlockage(geom.R(31, 0, 40, 1)) // only x=10, x=30 free inside

	p := problemOn(t, g, geom.Pt(0, 0), geom.Pt(40, 0))
	strictWin := false
	for _, T := range []float64{740, 760, 800, 850} {
		rbp, errR := core.RBP(p, T, core.Options{})
		lat, errL := Route(p, T, latchElem(), 0, core.Options{})
		if errL != nil {
			if errR == nil {
				t.Errorf("T=%g: RBP routed but latches failed: %v", T, errL)
			}
			continue
		}
		if err := Verify(lat.Path, g, p.Model, T, lat.Cycles); err != nil {
			t.Fatalf("T=%g: verifier: %v", T, err)
		}
		if errR == nil {
			if lat.LatencyPS > rbp.Latency+1e-6 {
				t.Errorf("T=%g: latch %g worse than RBP %g", T, lat.LatencyPS, rbp.Latency)
			}
			if lat.LatencyPS < rbp.Latency-1e-6 {
				strictWin = true
			}
		} else {
			strictWin = true // latches route where registers cannot
		}
	}
	if !strictWin {
		t.Error("expected at least one period where borrowing strictly beats registers")
	}
}

func TestLatchLatencyLowerBound(t *testing.T) {
	// Latency cannot beat the unclocked optimum rounded up to whole cycles.
	g := grid.MustNew(41, 3, 0.5)
	p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(40, 1))
	fp, err := core.FastPath(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, T := range []float64{300, 500, 900} {
		res, err := Route(p, T, latchElem(), 0, core.Options{})
		if err != nil {
			t.Fatalf("T=%g: %v", T, err)
		}
		lower := math.Ceil(fp.Latency/T) * T
		if res.LatencyPS < lower-1e-6 {
			t.Errorf("T=%g: latency %g beats the information-theoretic bound %g", T, res.LatencyPS, lower)
		}
	}
}

func TestLatchRespectsBlockages(t *testing.T) {
	g := grid.MustNew(41, 5, 0.5)
	g.AddRegisterBlockage(geom.R(10, 0, 30, 5))
	p := problemOn(t, g, geom.Pt(0, 2), geom.Pt(40, 2))
	// The 10 mm clock-quiet band must fit inside one stage: use a period
	// whose single-stage reach covers it.
	res, err := Route(p, 900, latchElem(), 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, gate := range res.Path.Gates {
		if gate.IsClocked() && i > 0 && i < len(res.Path.Gates)-1 {
			x := g.At(res.Path.Nodes[i]).X
			if x >= 10 && x < 30 {
				t.Errorf("latch at blocked column %d", x)
			}
		}
	}
	if err := Verify(res.Path, g, p.Model, 900, res.Cycles); err != nil {
		t.Fatal(err)
	}
}

func TestLatchUnreachable(t *testing.T) {
	g := grid.MustNew(11, 11, 0.5)
	g.AddWiringBlockage(geom.R(5, 0, 6, 11))
	p := problemOn(t, g, geom.Pt(0, 5), geom.Pt(10, 5))
	if _, err := Route(p, 300, latchElem(), 0, core.Options{}); !errors.Is(err, ErrNoPath) {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
}

func TestLatchMaxCyclesBound(t *testing.T) {
	// A 2 mm edge cannot be crossed in a 40 ps cycle no matter how many
	// cycles: the deepening must stop at the bound with ErrNoPath.
	g := grid.MustNew(10, 3, 2.0)
	p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(9, 1))
	if _, err := Route(p, 40, latchElem(), 6, core.Options{}); !errors.Is(err, ErrNoPath) {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
}

func TestVerifyRejectsBadPaths(t *testing.T) {
	g := grid.MustNew(41, 3, 0.5)
	p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(40, 1))
	res, err := Route(p, 400, latchElem(), 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Too few cycles must fail.
	if err := Verify(res.Path, g, p.Model, 400, res.Cycles-1); err == nil {
		t.Error("verifier accepted an impossible cycle count")
	}
	if err := Verify(res.Path, g, p.Model, 400, 0); err == nil {
		t.Error("verifier accepted k=0")
	}
	// An RBP path (internal registers) is not a latch path.
	rbp, err := core.RBP(p, 400, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rbp.Registers > 0 {
		if err := Verify(rbp.Path, g, p.Model, 400, rbp.Registers+1); err == nil {
			t.Error("verifier accepted internal registers on a latch path")
		}
	}
}

func TestLatchCyclesMonotoneWithDistance(t *testing.T) {
	prev := 0
	for _, w := range []int{11, 21, 31, 41, 51} {
		g := grid.MustNew(w, 3, 0.5)
		p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(w-1, 1))
		res, err := Route(p, 300, latchElem(), 0, core.Options{})
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if res.Cycles < prev {
			t.Errorf("w=%d: cycles %d dropped below %d for a longer net", w, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

// Randomized property: latch routes on arbitrary blockage maps always pass
// the forward-simulation verifier and never beat the information-theoretic
// lower bound. The deepening, bounds on and off, also runs on one fresh
// scratch whose wave heaps must never rebase: every key pushed into a wave
// is a popped delay plus a non-negative Elmore term, or a fresh latch's
// zero delay in a wave not yet drained.
func TestLatchRandomInstancesAlwaysVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sc := new(core.Scratch)
	for trial := 0; trial < 25; trial++ {
		g := grid.MustNew(14+rng.Intn(10), 6+rng.Intn(6), 0.5)
		for i := 0; i < 2+rng.Intn(3); i++ {
			x, y := rng.Intn(g.W()-3), rng.Intn(g.H()-3)
			r := geom.R(x, y, x+1+rng.Intn(4), y+1+rng.Intn(3))
			if rng.Intn(2) == 0 {
				g.AddObstacle(r)
			} else {
				g.AddRegisterBlockage(r)
			}
		}
		src := geom.Pt(0, rng.Intn(g.H()))
		dst := geom.Pt(g.W()-1, rng.Intn(g.H()))
		if !g.RegisterInsertable(g.ID(src)) || !g.RegisterInsertable(g.ID(dst)) {
			continue
		}
		p := problemOn(t, g, src, dst)
		T := 200 + rng.Float64()*600
		res, err := Route(p, T, latchElem(), 16, core.Options{})
		if err != nil {
			continue
		}
		if verr := Verify(res.Path, g, p.Model, T, res.Cycles); verr != nil {
			t.Fatalf("trial %d T=%.0f: %v\npath %v", trial, T, verr, res.Path)
		}
		fp, err := core.FastPath(p, core.Options{})
		if err == nil && res.LatencyPS < math.Ceil(fp.Latency/T)*T-1e-6 {
			t.Fatalf("trial %d: latency %g beats lower bound from fastpath %g", trial, res.LatencyPS, fp.Latency)
		}
		for _, opts := range []core.Options{{}, {DisableBounds: true}} {
			if _, err := deepen(p, T, latchElem(), 16, opts, sc); err != nil {
				t.Fatalf("trial %d %+v: %v", trial, opts, err)
			}
		}
		if n := sc.Rebases(); n != 0 {
			t.Fatalf("trial %d: %d wave-heap rebases", trial, n)
		}
	}
}
