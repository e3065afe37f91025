package core

// Kernel-equivalence regression gate: seeded random instances of mixed
// sizes, each routed by every kernel twice — admissible bounds on
// (default) and off — asserting the results are byte-for-byte identical
// (values, path, gates; effort counters legitimately differ). This is
// the volume half of the exactness proof: the fuzzer explores tiny
// grids adversarially, this sweep covers realistic shapes (lines, wide
// and tall grids, interior endpoints, all blockage kinds) at scale.
//
// The same helper backs four always-on tests: the reduced 60-instance
// stream, the ≥500-instance stream over the same small shapes with a
// different seed, a mid-size stratum where the delay-aware segment bounds
// cut the most, and a stratum under electrically distinct libraries. On
// every instance it also rebuilds the states along each unbounded optimum
// and asserts the bounds prune none of them (checkBoundsAdmitPath), which
// catches an inadmissible table even where no divergence happens to show.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"clockroute/internal/elmore"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
)

// sweepCase is one drawn instance. Unlike the metamorphic generator it
// places endpoints anywhere (not only corners) and allows degenerate
// shapes: 1-row lines, blockages touching the boundary, fully walled-off
// endpoints (those draws are rejected by NewProblem and redrawn).
type sweepCase struct {
	p         *Problem
	T, Ts, Tt float64
}

func randomSweepCase(rng *rand.Rand) *sweepCase {
	W := 3 + rng.Intn(12) // 3..14
	H := 1 + rng.Intn(9)  // 1..9
	pitch := []float64{0.25, 0.5, 1.0}[rng.Intn(3)]
	g := grid.MustNew(W, H, pitch)
	for i := rng.Intn(5); i > 0; i-- {
		x, y := rng.Intn(W), rng.Intn(H)
		r := geom.R(x, y, min(x+1+rng.Intn(3), W), min(y+1+rng.Intn(3), H))
		switch rng.Intn(3) {
		case 0:
			g.AddObstacle(r)
		case 1:
			g.AddRegisterBlockage(r)
		default:
			g.AddWiringBlockage(r)
		}
	}
	m, err := elmore.NewModel(testTech(), pitch)
	if err != nil {
		return nil
	}
	n := g.NumNodes()
	src := rng.Intn(n)
	dst := rng.Intn(n)
	if src == dst {
		return nil
	}
	p, err := NewProblem(g, m, src, dst)
	if err != nil {
		return nil // endpoint landed on a blockage — redrawn by the caller
	}
	return &sweepCase{
		p:  p,
		T:  float64(20 + rng.Intn(980)),
		Ts: float64(20 + rng.Intn(980)),
		Tt: float64(20 + rng.Intn(980)),
	}
}

// randomMidCase draws the mid-size stratum: 24–48-node dies at 0.25 mm
// with 6–12 blockages and periods of 250–850 ps — large enough that the
// delay-aware segment bounds prune heavily, which the small grids above
// rarely make them do. Draws whose endpoints are walled apart are redrawn:
// proving such an instance infeasible takes the unbounded max-slack arm
// NumNodes full waves, seconds per instance at this size, and the small
// stratum and the fuzzer already cover infeasible instances.
func randomMidCase(rng *rand.Rand) *sweepCase {
	W := 24 + rng.Intn(25) // 24..48
	H := 24 + rng.Intn(25)
	g := grid.MustNew(W, H, 0.25)
	for i := 6 + rng.Intn(7); i > 0; i-- {
		x, y := rng.Intn(W), rng.Intn(H)
		r := geom.R(x, y, min(x+2+rng.Intn(7), W), min(y+2+rng.Intn(7), H))
		switch rng.Intn(3) {
		case 0:
			g.AddObstacle(r)
		case 1:
			g.AddRegisterBlockage(r)
		default:
			g.AddWiringBlockage(r)
		}
	}
	m, err := elmore.NewModel(testTech(), 0.25)
	if err != nil {
		return nil
	}
	n := g.NumNodes()
	src, dst := rng.Intn(n), rng.Intn(n)
	if src == dst {
		return nil
	}
	p, err := NewProblem(g, m, src, dst)
	if err != nil || new(Scratch).prepBounds(p).distSrc[dst] < 0 {
		return nil
	}
	return &sweepCase{
		p:  p,
		T:  float64(250 + rng.Intn(601)),
		Ts: float64(250 + rng.Intn(601)),
		Tt: float64(250 + rng.Intn(601)),
	}
}

// randomTechCase draws small and mid shapes under the multi-size buffer
// library or skewTech. In testTech the register, the FIFO and the one
// buffer are electrically identical, so only these draws make the delay
// tables' seed capacitance, slope and FIFO closes differ from the
// register's own.
func randomTechCase(rng *rand.Rand) *sweepCase {
	W := 3 + rng.Intn(28) // 3..30
	H := 1 + rng.Intn(20) // 1..20
	pitch := []float64{0.25, 0.5}[rng.Intn(2)]
	g := grid.MustNew(W, H, pitch)
	for i := rng.Intn(9); i > 0; i-- {
		x, y := rng.Intn(W), rng.Intn(H)
		r := geom.R(x, y, min(x+1+rng.Intn(6), W), min(y+1+rng.Intn(6), H))
		switch rng.Intn(3) {
		case 0:
			g.AddObstacle(r)
		case 1:
			g.AddRegisterBlockage(r)
		default:
			g.AddWiringBlockage(r)
		}
	}
	tc := multiTech()
	if rng.Intn(2) == 0 {
		tc = skewTech()
	}
	m, err := elmore.NewModel(tc, pitch)
	if err != nil {
		return nil
	}
	n := g.NumNodes()
	src, dst := rng.Intn(n), rng.Intn(n)
	if src == dst {
		return nil
	}
	p, err := NewProblem(g, m, src, dst)
	if err != nil || new(Scratch).prepBounds(p).distSrc[dst] < 0 {
		return nil // walled-apart draws are redrawn, as in randomMidCase
	}
	return &sweepCase{
		p:  p,
		T:  float64(60 + rng.Intn(900)),
		Ts: float64(60 + rng.Intn(900)),
		Tt: float64(60 + rng.Intn(900)),
	}
}

// kernelEquivalenceSweep draws n valid instances from the seeded stream
// and asserts bounded == unbounded for every kernel on each.
func kernelEquivalenceSweep(t *testing.T, seed int64, n int, draw func(*rand.Rand) *sweepCase) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for built, attempts := 0, 0; built < n; attempts++ {
		if attempts > 20*n {
			t.Fatalf("generator rejected too many draws: %d built after %d attempts", built, attempts)
		}
		c := draw(rng)
		if c == nil {
			continue
		}
		built++
		p := c.p
		runs := []struct {
			name string
			run  func(opts Options) (*Result, error)
		}{
			{"fastpath", func(o Options) (*Result, error) { return FastPath(p, o) }},
			{"rbp", func(o Options) (*Result, error) { return RBP(p, c.T, o) }},
			{"rbp-slack", func(o Options) (*Result, error) {
				o.MaximizeSlack = true
				return RBP(p, c.T, o)
			}},
			{"gals", func(o Options) (*Result, error) { return GALS(p, c.Ts, c.Tt, o) }},
		}
		for _, r := range runs {
			bounded, berr := r.run(Options{})
			unbounded, uerr := r.run(Options{DisableBounds: true})
			bs := fuzzSnap(t, r.name+"/bounded", bounded, berr)
			us := fuzzSnap(t, r.name+"/unbounded", unbounded, uerr)
			if bs != us {
				t.Errorf("instance %d %s: bounded result diverges from unbounded\nbounded   %s\nunbounded %s",
					built-1, r.name, bs, us)
			}
			if uerr == nil {
				checkBoundsAdmitPath(t, fmt.Sprintf("instance %d %s", built-1, r.name), r.name, c, unbounded)
			}
		}
	}
}

// TestKernelEquivalenceSweep is the reduced gate over small shapes.
func TestKernelEquivalenceSweep(t *testing.T) {
	kernelEquivalenceSweep(t, 20260807, 60, randomSweepCase)
}

// TestKernelEquivalenceSweepFull is the ≥500-instance gate over small
// shapes, seeded differently from the reduced sweep so the two cover
// disjoint streams.
func TestKernelEquivalenceSweepFull(t *testing.T) {
	kernelEquivalenceSweep(t, 0x5eedf011, 500, randomSweepCase)
}

// TestKernelEquivalenceSweepMid is the gate over the mid-size stratum,
// where the delay-aware bounds cut the most candidates.
func TestKernelEquivalenceSweepMid(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine sweep, ~15× slower under the race runtime; the plain and shuffled passes run it")
	}
	kernelEquivalenceSweep(t, 0x3d5eed, 8, randomMidCase)
}

// TestKernelEquivalenceSweepTechs is the gate over libraries whose
// register, FIFO and buffers differ electrically.
func TestKernelEquivalenceSweepTechs(t *testing.T) {
	kernelEquivalenceSweep(t, 0x7ec5, 60, randomTechCase)
}

// TestKernelsNeverRebase runs every scheme of the engine on the sweep
// instances, bounds on and off and RBP in both slack modes, all on one
// fresh scratch, and requires that no push ever landed below its queue's
// floor. Each key a scheme pushes is a popped key plus a non-negative
// Elmore or period term, or a fresh latch's zero delay in a wave not yet
// drained, so the radix heap's rebase path must stay cold: a scheme that
// pushes below the floor would still pop exactly, only slower, and fails
// here instead. The latch router runs its deepening one cycle count at a
// time, as LatchSearch does, up to four cycles.
//
// Every run, and every step of the deepening, must also leave the arena
// holding exactly its queued candidates: a candidate the bounds or the
// Pareto store reject is decided on its value and never takes a slot.
func TestKernelsNeverRebase(t *testing.T) {
	sc := new(Scratch)
	for _, stream := range []struct {
		seed int64
		draw func(*rand.Rand) *sweepCase
	}{{20260807, randomSweepCase}, {0x7ec5, randomTechCase}} {
		rng := rand.New(rand.NewSource(stream.seed))
		for built := 0; built < 60; {
			c := stream.draw(rng)
			if c == nil {
				continue
			}
			built++
			p := c.p
			for _, opts := range []Options{{}, {DisableBounds: true}} {
				slack := opts
				slack.MaximizeSlack = true
				for k, run := range []struct {
					s    *scheme
					opts Options
				}{
					{fastPathScheme(), opts},
					{rbpScheme(p, c.T), opts},
					{rbpScheme(p, c.T), slack},
					{galsScheme(p, c.Ts, c.Tt), opts},
					{newLatchScheme(p, c.T, 1), opts},
					{newLatchScheme(p, c.T, 2), opts},
					{newLatchScheme(p, c.T, 3), opts},
					{newLatchScheme(p, c.T, 4), opts},
				} {
					sc.resetSearchState()
					res, err := search(p, run.s, run.opts, sc, nil, nil)
					if err != nil && !errors.Is(err, ErrNoPath) {
						t.Fatalf("seed %#x instance %d: %v", stream.seed, built-1, err)
					}
					if n := sc.Arena.Len(); n != res.Stats.Pushed {
						t.Fatalf("seed %#x instance %d scheme %d (bounds off: %t): arena holds %d candidates, %d pushed",
							stream.seed, built-1, k, opts.DisableBounds, n, res.Stats.Pushed)
					}
				}
			}
			if n := sc.Rebases(); n != 0 {
				t.Fatalf("seed %#x instance %d: %d queue rebases", stream.seed, built-1, n)
			}
		}
	}
}

// TestArenaHoldsOnlyQueuedWithoutPruning is the DisablePruning half of
// TestKernelsNeverRebase's arena check: with the Pareto stores off, every
// candidate that passes the bounds is queued, and only those take a slot.
// The coarse pitch keeps each segment's reach to a few edges, so the
// unpruned searches stay small. The latch router's deepening is checked
// step by step up to the cycle count that routes.
func TestArenaHoldsOnlyQueuedWithoutPruning(t *testing.T) {
	g := grid.MustNew(8, 4, 2.0)
	g.AddObstacle(geom.R(3, 1, 5, 3))
	p := problemOn(t, g, geom.Pt(0, 2), geom.Pt(7, 2))
	sc := new(Scratch)
	opts := Options{DisablePruning: true}
	slack := opts
	slack.MaximizeSlack = true
	check := func(name string, s *scheme, opts Options) error {
		sc.resetSearchState()
		res, err := search(p, s, opts, sc, nil, nil)
		if err != nil && !errors.Is(err, ErrNoPath) {
			t.Fatalf("%s: %v", name, err)
		}
		if n := sc.Arena.Len(); n != res.Stats.Pushed || res.Stats.Pruned != 0 {
			t.Fatalf("%s: arena holds %d candidates, %d pushed, %d pruned", name, n, res.Stats.Pushed, res.Stats.Pruned)
		}
		return err
	}
	for name, s := range map[string]*scheme{
		"rbp": rbpScheme(p, 250), "gals": galsScheme(p, 300, 300), "fastpath": fastPathScheme(),
	} {
		if err := check(name, s, opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := check("rbp max slack", rbpScheme(p, 250), slack); err != nil {
		t.Fatal(err)
	}
	for k := 1; check(fmt.Sprintf("latch k=%d", k), newLatchScheme(p, 250, k), opts) != nil; k++ {
		if k == 8 {
			t.Fatal("latch: no route within 8 cycles")
		}
	}
}
