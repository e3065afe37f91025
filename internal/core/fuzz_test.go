package core

// FuzzRouteDifferential is the randomized half of the bounded-search
// exactness contract: on every instance the fuzzer can construct, each
// kernel run with admissible bounds (the default) must return exactly the
// result of the same kernel with bounds disabled — values, path, and
// gates, byte for byte. The brute oracle then cross-checks each result
// three ways:
//
//  1. Achievability: the returned route passes the independent structural
//     and timing verifier (route.VerifySingleClock / VerifyMultiClock).
//  2. Tightness: the claimed objective equals the exact labeling DP run
//     along the returned node sequence — the kernel may not report a
//     better number than its own route achieves, and reporting a worse
//     one would contradict global optimality.
//  3. One-sided optimality: the objective is no worse than the optimum
//     over every simple path, and the kernel is feasible whenever some
//     simple path is.
//
// The simple-path sweep is deliberately one-sided: the kernels route
// walks, and a walk can strictly beat every simple path — e.g. when the
// only register-legal nodes sit on a dead-end spur, the optimal route
// detours into the spur, drops the register, and backtracks (corpus seed
// 7622841404739d2c). The instance space is kept small enough (≤ 5×4
// nodes) that enumerating every simple path stays cheap, while still
// covering blockage corner cases: zero-area rectangles, fully blocked
// grids, and period-infeasible nets are explicit corpus seeds.

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"clockroute/internal/elmore"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/route"
)

// fuzzInstance decodes the fuzz inputs into a small problem. Masks are
// bit-per-node; bits past the node count are ignored. Returns nil when
// the decoded instance is invalid (endpoints blocked) — those inputs are
// simply skipped, they exercise NewProblem's validation instead.
func fuzzInstance(w, h uint8, obsMask, regMask, wireMask uint32, pitchSel uint8) (*grid.Grid, *Problem) {
	W := 2 + int(w%4) // 2..5
	H := 1 + int(h%4) // 1..4
	pitch := []float64{0.25, 0.5, 1.0}[int(pitchSel)%3]
	g := grid.MustNew(W, H, pitch)
	n := W * H
	src, dst := 0, n-1
	for i := 0; i < n && i < 32; i++ {
		p := g.At(i)
		r := geom.R(p.X, p.Y, p.X+1, p.Y+1)
		if obsMask&(1<<i) != 0 && i != src && i != dst {
			g.AddObstacle(r)
		}
		if regMask&(1<<i) != 0 && i != src && i != dst {
			g.AddRegisterBlockage(r)
		}
		if wireMask&(1<<i) != 0 && i != src && i != dst {
			g.AddWiringBlockage(r)
		}
	}
	m, err := elmore.NewModel(testTech(), pitch)
	if err != nil {
		return nil, nil
	}
	p, err := NewProblem(g, m, src, dst)
	if err != nil {
		return nil, nil
	}
	return g, p
}

// fuzzSnap renders a result (or its ErrNoPath verdict) for byte-for-byte
// comparison between the bounded and unbounded arms. Stats are excluded:
// effort counters legitimately differ, results must not.
func fuzzSnap(t *testing.T, label string, res *Result, err error) string {
	t.Helper()
	if err != nil {
		if !errors.Is(err, ErrNoPath) {
			t.Fatalf("%s: unexpected error: %v", label, err)
		}
		return "no-path"
	}
	return fmt.Sprintf("lat=%b src=%b slack=%b regs=%d regS=%d regT=%d bufs=%d nodes=%v gates=%v",
		res.Latency, res.SourceDelay, res.SlackPS,
		res.Registers, res.RegS, res.RegT, res.Buffers,
		res.Path.Nodes, res.Path.Gates)
}

func FuzzRouteDifferential(f *testing.F) {
	// Plain open instances at easy and tight periods.
	f.Add(uint8(3), uint8(2), uint32(0), uint32(0), uint32(0), uint8(1), uint16(300), uint16(300), uint16(450))
	// Zero-area blockage rectangles come from the all-masks-zero seeds by
	// construction; the explicit degenerate shapes live at the grid level:
	// a 2×1 line (the smallest legal problem).
	f.Add(uint8(0), uint8(0), uint32(0), uint32(0), uint32(0), uint8(0), uint16(100), uint16(60), uint16(90))
	// Fully blocked: every interior node wiring-blocked — no path exists.
	f.Add(uint8(2), uint8(2), uint32(0), uint32(0), uint32(0xFFFFFFFF), uint8(1), uint16(300), uint16(300), uint16(450))
	// Period-infeasible: a period far below any closable segment delay.
	f.Add(uint8(3), uint8(3), uint32(0), uint32(0), uint32(0), uint8(2), uint16(1), uint16(1), uint16(2))
	// Register-blocked interior: RBP must either cross in one segment or fail.
	f.Add(uint8(3), uint8(2), uint32(0), uint32(0xFFFFFFFF), uint32(0), uint8(1), uint16(200), uint16(150), uint16(200))
	// Obstacle diagonal with a tight period and mixed pitch.
	f.Add(uint8(3), uint8(3), uint32(0b1000010000), uint32(0), uint32(0), uint8(0), uint16(80), uint16(120), uint16(80))

	f.Fuzz(func(t *testing.T, w, h uint8, obsMask, regMask, wireMask uint32, pitchSel uint8, tRaw, tsRaw, ttRaw uint16) {
		g, p := fuzzInstance(w, h, obsMask, regMask, wireMask, pitchSel)
		if p == nil {
			t.Skip()
		}
		T := 1 + float64(tRaw%2000)
		Ts := 1 + float64(tsRaw%2000)
		Tt := 1 + float64(ttRaw%2000)
		m := p.Model

		runs := []struct {
			name string
			run  func(opts Options) (*Result, error)
		}{
			{"fastpath", func(o Options) (*Result, error) { return FastPath(p, o) }},
			{"rbp", func(o Options) (*Result, error) { return RBP(p, T, o) }},
			{"rbp-slack", func(o Options) (*Result, error) {
				o.MaximizeSlack = true
				return RBP(p, T, o)
			}},
			{"gals", func(o Options) (*Result, error) { return GALS(p, Ts, Tt, o) }},
		}
		results := map[string]*Result{}
		for _, r := range runs {
			bounded, berr := r.run(Options{})
			unbounded, uerr := r.run(Options{DisableBounds: true})
			bs := fuzzSnap(t, r.name+"/bounded", bounded, berr)
			us := fuzzSnap(t, r.name+"/unbounded", unbounded, uerr)
			if bs != us {
				t.Errorf("%s: bounded result diverges from unbounded\nbounded   %s\nunbounded %s",
					r.name, bs, us)
			}
			if berr == nil {
				results[r.name] = bounded
			}
		}

		// Brute oracle cross-check: achievability, tightness, and
		// one-sided optimality against the simple-path sweep.
		wantDelay := bruteMinDelay(g, m, p.Source, p.Sink)
		if res, ok := results["fastpath"]; ok {
			if err := res.Path.CheckStructure(g); err != nil {
				t.Errorf("fastpath path invalid: %v", err)
			}
			along := brutePathMinDelay(g, m, res.Path.Nodes)
			if math.Abs(res.Latency-along) > 1e-6*math.Max(1, along) {
				t.Errorf("fastpath latency %g != along-path optimum %g", res.Latency, along)
			}
			if res.Latency > wantDelay+1e-6*math.Max(1, wantDelay) {
				t.Errorf("fastpath latency %g worse than simple-path optimum %g", res.Latency, wantDelay)
			}
		} else if !math.IsInf(wantDelay, 1) {
			t.Errorf("fastpath found no path but brute found delay %g", wantDelay)
		}

		wantRegs := bruteMinRegs(g, m, p.Source, p.Sink, T)
		for _, name := range []string{"rbp", "rbp-slack"} {
			if res, ok := results[name]; ok {
				if _, err := route.VerifySingleClock(res.Path, g, m, T); err != nil {
					t.Errorf("%s path invalid: %v", name, err)
				}
				if along := brutePathMinRegs(g, m, res.Path.Nodes, T); res.Registers != along {
					t.Errorf("%s registers %d != along-path optimum %d", name, res.Registers, along)
				}
				if wantRegs >= 0 && res.Registers > wantRegs {
					t.Errorf("%s registers %d worse than simple-path optimum %d", name, res.Registers, wantRegs)
				}
			} else if wantRegs >= 0 {
				t.Errorf("%s infeasible but brute found %d registers", name, wantRegs)
			}
		}

		wantGALS := bruteMinGALS(g, m, p.Source, p.Sink, Ts, Tt)
		if res, ok := results["gals"]; ok {
			if _, err := route.VerifyMultiClock(res.Path, g, m, Ts, Tt); err != nil {
				t.Errorf("gals path invalid: %v", err)
			}
			along := brutePathMinGALS(g, m, res.Path.Nodes, Ts, Tt)
			if math.Abs(res.Latency-along) > 1e-6*math.Max(1, along) {
				t.Errorf("gals latency %g != along-path optimum %g", res.Latency, along)
			}
			if res.Latency > wantGALS+1e-6*math.Max(1, wantGALS) {
				t.Errorf("gals latency %g worse than simple-path optimum %g", res.Latency, wantGALS)
			}
		} else if !math.IsInf(wantGALS, 1) {
			t.Errorf("gals infeasible but brute found latency %g", wantGALS)
		}
	})
}
