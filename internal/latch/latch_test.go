package latch

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"clockroute/internal/core"
	"clockroute/internal/elmore"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/tech"
)

func problemOn(t *testing.T, g *grid.Grid, s, tt geom.Point) *core.Problem {
	t.Helper()
	return problemWith(t, tech.CongPan70nm(), g, s, tt)
}

func problemWith(t *testing.T, tc *tech.Tech, g *grid.Grid, s, tt geom.Point) *core.Problem {
	t.Helper()
	m := elmore.MustNewModel(tc, g.PitchMM())
	p, err := core.NewProblem(g, m, g.ID(s), g.ID(tt))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// weakBufTech is CongPan70nm with a buffer the register, and so the latch,
// out-drives (K 60 ps, R 320 Ω against 22 ps and 160 Ω). On CongPan70nm
// the latch is the buffer electrically, so only trials on this library
// tell whether the latch bounds count the latch as a repeater.
func weakBufTech() *tech.Tech {
	tc := tech.CongPan70nm()
	tc.Name = "weak-buffer"
	tc.Buffers[0].K, tc.Buffers[0].R = 60, 320
	return tc
}

func TestRouteValidation(t *testing.T) {
	g := grid.MustNew(11, 3, 0.5)
	p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(10, 1))
	if _, err := Route(p, 0, 0, core.Options{}); err == nil {
		t.Error("T=0 must fail")
	}
}

func TestRouteOpenLineMatchesVerifier(t *testing.T) {
	g := grid.MustNew(41, 3, 0.5) // 20 mm
	p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(40, 1))
	for _, T := range []float64{250, 400, 700, 1500} {
		res, err := Route(p, T, 0, core.Options{})
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
			lat, errL := Route(p, T, 0, core.Options{})
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
		lat, errL := Route(p, T, 0, core.Options{})
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
		res, err := Route(p, T, 0, core.Options{})
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
	res, err := Route(p, 900, 0, core.Options{})
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
	if _, err := Route(p, 300, 0, core.Options{}); !errors.Is(err, ErrNoPath) {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
}

func TestLatchMaxCyclesBound(t *testing.T) {
	// A 2 mm edge cannot be crossed in a 40 ps cycle no matter how many
	// cycles: the deepening must stop at the bound with ErrNoPath.
	g := grid.MustNew(10, 3, 2.0)
	p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(9, 1))
	if _, err := Route(p, 40, 6, core.Options{}); !errors.Is(err, ErrNoPath) {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
}

func TestVerifyRejectsBadPaths(t *testing.T) {
	g := grid.MustNew(41, 3, 0.5)
	p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(40, 1))
	res, err := Route(p, 400, 0, core.Options{})
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
		res, err := Route(p, 300, 0, core.Options{})
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if res.Cycles < prev {
			t.Errorf("w=%d: cycles %d dropped below %d for a longer net", w, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

// latchTrial is one of TestLatchRandomInstancesAlwaysVerify's instances.
type latchTrial struct {
	n int // the draw's index, skipped draws included
	g *grid.Grid
	p *core.Problem
	T float64
}

// latchTrials draws random blockage maps on library tc, draws of them
// from seed. The seed-42, 25-draw CongPan70nm set is
// TestLatchRandomInstancesAlwaysVerify's, also pinned by
// TestLatchStatsGolden.
func latchTrials(t *testing.T, tc *tech.Tech, seed int64, draws int) []latchTrial {
	rng := rand.New(rand.NewSource(seed))
	var out []latchTrial
	for trial := 0; trial < draws; trial++ {
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
		out = append(out, latchTrial{n: trial, g: g, p: problemWith(t, tc, g, src, dst), T: 200 + rng.Float64()*600})
	}
	return out
}

// answer renders a routed latch result without its effort, or the error.
func answer(res *Result, err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("latency=%s cycles=%d latches=%d buffers=%d path=%v %s",
		strconv.FormatFloat(res.LatencyPS, 'g', -1, 64), res.Cycles, res.Latches, res.Buffers,
		res.Path.Nodes, res.Path)
}

// Randomized property: latch routes on arbitrary blockage maps always pass
// the forward-simulation verifier, never beat the information-theoretic
// lower bound, and are the same with the bounds on and off. (The core
// package checks the latch scheme's queues and arena.)
func TestLatchRandomInstancesAlwaysVerify(t *testing.T) {
	for _, tr := range latchTrials(t, tech.CongPan70nm(), 42, 25) {
		trial, g, p, T := tr.n, tr.g, tr.p, tr.T
		res, err := Route(p, T, 16, core.Options{})
		if unb := answer(Route(p, T, 16, core.Options{DisableBounds: true})); unb != answer(res, err) {
			t.Fatalf("trial %d T=%.0f: bounds change the answer\nbounds on  %s\nbounds off %s", trial, T, answer(res, err), unb)
		}
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
	}
}

// TestLatchWeakBufferTrials runs random blockage maps on weakBufTech,
// whose latch out-drives its buffer, so the latch line lies below the
// plain buffered line: a latch bound that left the latch out of its
// repeaters would prune completions through latches. Every trial must
// route the same with the bounds on and off and pass the verifier.
func TestLatchWeakBufferTrials(t *testing.T) {
	trials := latchTrials(t, weakBufTech(), 7, 60)
	routed := 0
	for _, tr := range trials {
		res, err := Route(tr.p, tr.T, 16, core.Options{})
		if unb := answer(Route(tr.p, tr.T, 16, core.Options{DisableBounds: true})); unb != answer(res, err) {
			t.Errorf("trial %d T=%.0f: bounds change the answer\nbounds on  %s\nbounds off %s", tr.n, tr.T, answer(res, err), unb)
			continue
		}
		if err != nil {
			continue
		}
		routed++
		if verr := Verify(res.Path, tr.g, tr.p.Model, tr.T, res.Cycles); verr != nil {
			t.Errorf("trial %d T=%.0f: %v\npath %v", tr.n, tr.T, verr, res.Path)
		}
	}
	if routed < len(trials)/2 {
		t.Errorf("only %d of %d trials routed", routed, len(trials))
	}
}

// TestLatchStatsGolden pins the answer and the whole effort (every Stats
// field but Elapsed) of Route on TestLatchRandomInstancesAlwaysVerify's
// trials, bounds on and off, against testdata/latch-stats.golden.
func TestLatchStatsGolden(t *testing.T) {
	var b strings.Builder
	for _, tr := range latchTrials(t, tech.CongPan70nm(), 42, 25) {
		for _, opts := range []core.Options{{}, {DisableBounds: true}} {
			res, err := Route(tr.p, tr.T, 16, opts)
			fmt.Fprintf(&b, "%d bounds=%t: %s", tr.n, !opts.DisableBounds, answer(res, err))
			if err == nil {
				v := reflect.ValueOf(res.Stats)
				for i := 0; i < v.NumField(); i++ {
					if name := v.Type().Field(i).Name; name != "Elapsed" {
						fmt.Fprintf(&b, " %s=%v", name, v.Field(i).Interface())
					}
				}
			}
			b.WriteString("\n")
		}
	}
	got := b.String()
	raw, err := os.ReadFile(filepath.Join("testdata", "latch-stats.golden"))
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("latch-stats.golden: line %d differs\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
}
