package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"clockroute/internal/elmore"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/route"
)

// problemOn builds a Problem on a fresh open grid with the default tech.
func problemOn(t *testing.T, g *grid.Grid, s, tt geom.Point) *Problem {
	t.Helper()
	m := elmore.MustNewModel(testTech(), g.PitchMM())
	p, err := NewProblem(g, m, g.ID(s), g.ID(tt))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProblemValidation(t *testing.T) {
	g := grid.MustNew(10, 10, 0.5)
	m := elmore.MustNewModel(testTech(), 0.5)
	if _, err := NewProblem(nil, m, 0, 1); err == nil {
		t.Error("nil grid should fail")
	}
	if _, err := NewProblem(g, m, 0, 0); err == nil {
		t.Error("s == t should fail")
	}
	if _, err := NewProblem(g, m, -1, 5); err == nil {
		t.Error("negative endpoint should fail")
	}
	if _, err := NewProblem(g, m, 0, g.NumNodes()); err == nil {
		t.Error("out-of-range endpoint should fail")
	}
	wrongPitch := elmore.MustNewModel(testTech(), 0.25)
	if _, err := NewProblem(g, wrongPitch, 0, 5); err == nil {
		t.Error("pitch mismatch should fail")
	}
	blocked := g.Clone()
	blocked.AddObstacle(geom.R(0, 0, 1, 1))
	if _, err := NewProblem(blocked, m, 0, 5); err == nil {
		t.Error("source on obstacle should fail")
	}
}

func TestFastPathStraightLine(t *testing.T) {
	g := grid.MustNew(41, 3, 0.5) // 20 mm span
	p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(40, 1))
	res, err := FastPath(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Path.CheckStructure(g); err != nil {
		t.Fatalf("structure: %v", err)
	}
	if res.Registers != 0 {
		t.Errorf("FastPath inserted %d registers", res.Registers)
	}
	if res.Path.Len() != 40 {
		t.Errorf("path length = %d edges, want 40 (straight)", res.Path.Len())
	}
	// Independent verification: the single segment's closed-form delay must
	// equal the reported latency.
	d := res.Path.SegmentDelays(p.Model)
	if len(d) != 1 || math.Abs(d[0]-res.Latency) > 1e-6 {
		t.Errorf("verified delay %v vs reported %g", d, res.Latency)
	}
	// Buffers must help: compare to the unbuffered wire.
	unbuffered := p.Model.StageDelay(p.Model.Tech().Register, 40, p.Model.Tech().Register.C)
	if res.Latency >= unbuffered {
		t.Errorf("buffered delay %g not better than unbuffered %g", res.Latency, unbuffered)
	}
	if res.Buffers == 0 {
		t.Error("20mm line should want buffers")
	}
	if res.Stats.Configs == 0 || res.Stats.MaxQSize == 0 {
		t.Error("stats not collected")
	}
}

func TestFastPathMatchesBruteForce(t *testing.T) {
	g := grid.MustNew(4, 3, 2.0) // coarse pitch: buffering matters
	p := problemOn(t, g, geom.Pt(0, 0), geom.Pt(3, 2))
	res, err := FastPath(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteMinDelay(g, p.Model, p.Source, p.Sink)
	if math.Abs(res.Latency-want) > 1e-6 {
		t.Errorf("FastPath = %g, brute force = %g", res.Latency, want)
	}
}

func TestFastPathMatchesBruteForceWithBlockages(t *testing.T) {
	g := grid.MustNew(4, 4, 2.0)
	g.AddObstacle(geom.R(1, 1, 3, 2))       // no gates in the middle band
	g.AddWiringBlockage(geom.R(2, 2, 3, 3)) // and a hole in the grid
	p := problemOn(t, g, geom.Pt(0, 0), geom.Pt(3, 3))
	res, err := FastPath(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Path.CheckStructure(g); err != nil {
		t.Fatalf("structure: %v", err)
	}
	want := bruteMinDelay(g, p.Model, p.Source, p.Sink)
	if math.Abs(res.Latency-want) > 1e-6 {
		t.Errorf("FastPath = %g, brute force = %g", res.Latency, want)
	}
}

func TestFastPathUnreachable(t *testing.T) {
	g := grid.MustNew(10, 10, 0.5)
	g.AddWiringBlockage(geom.R(5, 0, 6, 10))
	p := problemOn(t, g, geom.Pt(0, 5), geom.Pt(9, 5))
	if _, err := FastPath(p, Options{}); !errors.Is(err, ErrNoPath) {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
}

func TestRBPZeroRegistersAtLargePeriod(t *testing.T) {
	g := grid.MustNew(41, 3, 0.5)
	p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(40, 1))
	fp, err := FastPath(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	T := fp.Latency + 1
	res, err := RBP(p, T, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Registers != 0 {
		t.Errorf("registers = %d, want 0 at T > fastpath delay", res.Registers)
	}
	if res.Latency != T {
		t.Errorf("latency = %g, want %g", res.Latency, T)
	}
	// The register-free RBP path must achieve the FastPath optimum.
	if math.Abs(res.SourceDelay-fp.Latency) > 1e-6 {
		t.Errorf("RBP source delay %g vs FastPath %g", res.SourceDelay, fp.Latency)
	}
}

func TestRBPFeasibilityAcrossPeriods(t *testing.T) {
	g := grid.MustNew(41, 5, 0.5) // 20 mm
	p := problemOn(t, g, geom.Pt(0, 2), geom.Pt(40, 2))
	prevRegs := -1
	for _, T := range []float64{1500, 1000, 700, 500, 350, 250, 150, 100, 60} {
		res, err := RBP(p, T, Options{})
		if err != nil {
			t.Fatalf("T=%g: %v", T, err)
		}
		lat, err := route.VerifySingleClock(res.Path, g, p.Model, T)
		if err != nil {
			t.Fatalf("T=%g: verifier rejected RBP output: %v", T, err)
		}
		if math.Abs(lat-res.Latency) > 1e-6 {
			t.Errorf("T=%g: verifier latency %g != reported %g", T, lat, res.Latency)
		}
		// Iterating from large to small periods, register counts must not
		// shrink: anything feasible with p registers at T is feasible at
		// every larger period.
		if res.Registers < prevRegs {
			t.Errorf("T=%g: register count %d dropped below %d from a larger period", T, res.Registers, prevRegs)
		}
		prevRegs = res.Registers
		if want := T * float64(res.Registers+1); math.Abs(res.Latency-want) > 1e-6 {
			t.Errorf("T=%g: latency %g != T*(p+1) = %g", T, res.Latency, want)
		}
	}
}

func TestRBPRegisterCountMonotoneInPeriod(t *testing.T) {
	g := grid.MustNew(41, 3, 0.5)
	p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(40, 1))
	prev := math.MaxInt32
	for _, T := range []float64{60, 80, 120, 200, 400, 800, 1600} {
		res, err := RBP(p, T, Options{})
		if err != nil {
			t.Fatalf("T=%g: %v", T, err)
		}
		if res.Registers > prev {
			t.Errorf("registers increased (%d -> %d) as T grew to %g", prev, res.Registers, T)
		}
		prev = res.Registers
	}
}

func TestRBPMatchesLineOracle(t *testing.T) {
	// On an open line, the optimal register count is ceil(edges/N) - 1
	// where N is the exact single-cycle buffered reach.
	g := grid.MustNew(61, 1, 0.5) // 30 mm line
	p := problemOn(t, g, geom.Pt(0, 0), geom.Pt(60, 0))
	for _, T := range []float64{120, 200, 300, 500, 900} {
		n := p.Model.MaxBufferedSegmentEdges(T)
		if n == 0 {
			continue
		}
		want := (60+n-1)/n - 1
		res, err := RBP(p, T, Options{})
		if err != nil {
			t.Fatalf("T=%g: %v", T, err)
		}
		if res.Registers != want {
			t.Errorf("T=%g: registers = %d, oracle = %d (reach %d)", T, res.Registers, want, n)
		}
	}
}

func TestRBPMatchesBruteForceSmallGrids(t *testing.T) {
	configs := []struct {
		name  string
		setup func(*grid.Grid)
	}{
		{"open", func(*grid.Grid) {}},
		{"obstacle", func(g *grid.Grid) { g.AddObstacle(geom.R(1, 0, 3, 2)) }},
		{"regblock", func(g *grid.Grid) { g.AddRegisterBlockage(geom.R(1, 1, 3, 3)) }},
		{"wall", func(g *grid.Grid) { g.AddWiringBlockage(geom.R(2, 0, 3, 2)) }},
	}
	for _, cfg := range configs {
		g := grid.MustNew(4, 3, 2.0)
		cfg.setup(g)
		p := problemOn(t, g, geom.Pt(0, 0), geom.Pt(3, 2))
		for _, T := range []float64{120, 200, 400, 900} {
			want := bruteMinRegs(g, p.Model, p.Source, p.Sink, T)
			res, err := RBP(p, T, Options{})
			if want == -1 {
				if !errors.Is(err, ErrNoPath) {
					t.Errorf("%s T=%g: brute says infeasible, RBP returned %v", cfg.name, T, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s T=%g: brute found %d regs, RBP failed: %v", cfg.name, T, want, err)
				continue
			}
			// RBP explores walks, so it may legitimately beat the
			// simple-path brute force; it must never be worse.
			if res.Registers > want {
				t.Errorf("%s T=%g: RBP %d regs > brute %d", cfg.name, T, res.Registers, want)
			}
			if _, err := route.VerifySingleClock(res.Path, g, p.Model, T); err != nil {
				t.Errorf("%s T=%g: verifier: %v", cfg.name, T, err)
			}
		}
	}
}

func TestRBPInfeasiblePeriod(t *testing.T) {
	g := grid.MustNew(10, 3, 2.0) // coarse pitch
	p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(9, 1))
	// One 2 mm edge costs well over 40 ps with this tech; no layout works.
	if _, err := RBP(p, 40, Options{}); !errors.Is(err, ErrNoPath) {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
}

func TestRBPRejectsBadPeriod(t *testing.T) {
	g := grid.MustNew(10, 3, 0.5)
	p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(9, 1))
	if _, err := RBP(p, 0, Options{}); err == nil {
		t.Error("T=0 must error")
	}
	if _, err := RBP(p, -5, Options{}); err == nil {
		t.Error("negative T must error")
	}
}

func TestRBPDetoursForRegisterSite(t *testing.T) {
	// A corridor of obstacles covers the straight path; the only register
	// sites are off-corridor. RBP must still find a feasible solution.
	g := grid.MustNew(21, 5, 1.0)
	g.AddObstacle(geom.R(1, 2, 20, 3)) // the straight row, except endpoints
	p := problemOn(t, g, geom.Pt(0, 2), geom.Pt(20, 2))
	res, err := RBP(p, 320, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := route.VerifySingleClock(res.Path, g, p.Model, 320); err != nil {
		t.Fatalf("verifier: %v", err)
	}
	if res.Registers == 0 {
		t.Error("20mm at T=320 must need registers")
	}
	if res.Path.Len() <= 20 {
		t.Errorf("path length %d should exceed the straight 20 edges (detour required)", res.Path.Len())
	}
}

func TestRBPAblationsPreserveOptimum(t *testing.T) {
	// Coarse pitch keeps the single-cycle reach to 1-3 edges so the
	// pruning-disabled run (exponential in reach) stays tiny.
	g := grid.MustNew(8, 4, 2.0)
	g.AddObstacle(geom.R(3, 1, 5, 3))
	p := problemOn(t, g, geom.Pt(0, 2), geom.Pt(7, 2))
	for _, T := range []float64{250, 400} {
		base, err := RBP(p, T, Options{})
		if err != nil {
			t.Fatalf("T=%g: %v", T, err)
		}
		noPrune, err := RBP(p, T, Options{DisablePruning: true})
		if err != nil {
			t.Fatalf("T=%g no-prune: %v", T, err)
		}
		if noPrune.Latency != base.Latency || noPrune.Registers != base.Registers {
			t.Errorf("T=%g: pruning changed the optimum (%g,%d) vs (%g,%d)",
				T, base.Latency, base.Registers, noPrune.Latency, noPrune.Registers)
		}
		if noPrune.Stats.Configs < base.Stats.Configs {
			t.Errorf("T=%g: pruning should reduce configs (%d with vs %d without)",
				T, base.Stats.Configs, noPrune.Stats.Configs)
		}
		noLook, err := RBP(p, T, Options{DisableLookahead: true})
		if err != nil {
			t.Fatalf("T=%g no-lookahead: %v", T, err)
		}
		if noLook.Latency != base.Latency || noLook.Registers != base.Registers {
			t.Errorf("T=%g: lookahead changed the optimum", T)
		}
	}
}

func TestRBPMaxConfigsAborts(t *testing.T) {
	g := grid.MustNew(30, 30, 0.5)
	p := problemOn(t, g, geom.Pt(0, 0), geom.Pt(29, 29))
	_, err := RBP(p, 500, Options{MaxConfigs: 10})
	if !errors.Is(err, ErrAborted) {
		t.Errorf("err = %v, want ErrAborted on config budget", err)
	}
	if errors.Is(err, ErrNoPath) {
		t.Errorf("err = %v must not claim infeasibility", err)
	}
}

type recordingTracer struct {
	waves  []float64
	visits int
}

func (r *recordingTracer) WaveStart(_ int, latency float64) { r.waves = append(r.waves, latency) }
func (r *recordingTracer) Visit(int, int)                   { r.visits++ }

func TestRBPTracerSeesWaves(t *testing.T) {
	g := grid.MustNew(41, 3, 0.5)
	p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(40, 1))
	tr := &recordingTracer{}
	res, err := RBP(p, 200, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.waves) != res.Registers+1 {
		t.Errorf("tracer saw %d waves, want %d", len(tr.waves), res.Registers+1)
	}
	if tr.visits != res.Stats.Configs {
		t.Errorf("tracer visits %d != configs %d", tr.visits, res.Stats.Configs)
	}
	for i, l := range tr.waves {
		if want := 200 * float64(i+1); l != want {
			t.Errorf("wave %d latency = %g, want %g", i, l, want)
		}
	}
}

func TestMultiSizeLibraryNeverWorse(t *testing.T) {
	// The 3-size library is a superset of the single-size one, so FastPath
	// delay and RBP register counts can only improve.
	g := grid.MustNew(41, 3, 0.5)
	single := elmore.MustNewModel(testTech(), 0.5)
	multi := elmore.MustNewModel(multiTech(), 0.5)
	s, tt := g.ID(geom.Pt(0, 1)), g.ID(geom.Pt(40, 1))
	pSingle, err := NewProblem(g, single, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	pMulti, err := NewProblem(g, multi, s, tt)
	if err != nil {
		t.Fatal(err)
	}

	fp1, err := FastPath(pSingle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp3, err := FastPath(pMulti, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fp3.Latency > fp1.Latency+1e-9 {
		t.Errorf("multi-size FastPath %g worse than single-size %g", fp3.Latency, fp1.Latency)
	}

	for _, T := range []float64{200, 400, 800} {
		r1, err1 := RBP(pSingle, T, Options{})
		r3, err3 := RBP(pMulti, T, Options{})
		if err1 != nil || err3 != nil {
			t.Fatalf("T=%g: %v / %v", T, err1, err3)
		}
		if r3.Registers > r1.Registers {
			t.Errorf("T=%g: multi-size needs more registers (%d > %d)", T, r3.Registers, r1.Registers)
		}
		if _, err := route.VerifySingleClock(r3.Path, g, pMulti.Model, T); err != nil {
			t.Errorf("T=%g: verifier: %v", T, err)
		}
	}
}

func TestMultiSizeLibraryMatchesBruteForce(t *testing.T) {
	g := grid.MustNew(4, 3, 2.0)
	m := elmore.MustNewModel(multiTech(), 2.0)
	p, err := NewProblem(g, m, g.ID(geom.Pt(0, 0)), g.ID(geom.Pt(3, 2)))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := FastPath(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteMinDelay(g, m, p.Source, p.Sink); math.Abs(fp.Latency-want) > 1e-6 {
		t.Errorf("multi-size FastPath = %g, brute = %g", fp.Latency, want)
	}
	for _, T := range []float64{150, 250, 500} {
		want := bruteMinRegs(g, m, p.Source, p.Sink, T)
		res, err := RBP(p, T, Options{})
		if want == -1 {
			if err == nil {
				t.Errorf("T=%g: brute infeasible but RBP routed", T)
			}
			continue
		}
		if err != nil {
			t.Fatalf("T=%g: %v", T, err)
		}
		if res.Registers > want {
			t.Errorf("T=%g: RBP %d regs > brute %d", T, res.Registers, want)
		}
	}
}

// Randomized end-to-end property: on arbitrary seeded blockage maps and
// periods, every algorithm either reports ErrNoPath or returns a path that
// passes its independent verifier with the advertised latency.
func TestRandomInstancesAlwaysVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	trials := 40
	for trial := 0; trial < trials; trial++ {
		g := grid.MustNew(16+rng.Intn(10), 10+rng.Intn(8), 0.5+rng.Float64())
		for i := 0; i < 3+rng.Intn(4); i++ {
			x, y := rng.Intn(g.W()-3), rng.Intn(g.H()-3)
			r := geom.R(x, y, x+1+rng.Intn(4), y+1+rng.Intn(4))
			switch rng.Intn(3) {
			case 0:
				g.AddObstacle(r)
			case 1:
				g.AddWiringBlockage(r)
			default:
				g.AddRegisterBlockage(r)
			}
		}
		src := geom.Pt(0, rng.Intn(g.H()))
		dst := geom.Pt(g.W()-1, rng.Intn(g.H()))
		if !g.RegisterInsertable(g.ID(src)) || !g.RegisterInsertable(g.ID(dst)) {
			continue
		}
		p := problemOn(t, g, src, dst)
		T := 150 + rng.Float64()*800

		res, err := RBP(p, T, Options{})
		if err == nil {
			if lat, verr := route.VerifySingleClock(res.Path, g, p.Model, T); verr != nil {
				t.Fatalf("trial %d T=%.0f: RBP verification: %v", trial, T, verr)
			} else if math.Abs(lat-res.Latency) > 1e-6 {
				t.Fatalf("trial %d: RBP latency mismatch %g vs %g", trial, lat, res.Latency)
			}
		} else if !errors.Is(err, ErrNoPath) {
			t.Fatalf("trial %d: unexpected RBP error: %v", trial, err)
		}

		Ts, Tt := T, 150+rng.Float64()*800
		gres, gerr := GALS(p, Ts, Tt, Options{})
		if gerr == nil {
			if lat, verr := route.VerifyMultiClock(gres.Path, g, p.Model, Ts, Tt); verr != nil {
				t.Fatalf("trial %d Ts=%.0f Tt=%.0f: GALS verification: %v", trial, Ts, Tt, verr)
			} else if math.Abs(lat-gres.Latency) > 1e-6 {
				t.Fatalf("trial %d: GALS latency mismatch %g vs %g", trial, lat, gres.Latency)
			}
		} else if !errors.Is(gerr, ErrNoPath) {
			t.Fatalf("trial %d: unexpected GALS error: %v", trial, gerr)
		}
	}
}
