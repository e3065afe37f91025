package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"clockroute/internal/elmore"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/tech"
)

// The oracle below is the per-call ideal-line sweep every search ran
// before the per-model curves: one fresh DP per reach and per table, at the
// search's own limit and length. Its delay table rounds each close in the
// kernel's order, d + R·c + K, as the curves do. The curves must reproduce
// its reaches and its prune decisions exactly.

// oracleSweep runs the ideal-line Pareto DP from seed for up to maxSteps
// steps, each an edge and then at most one of repeaters, keeping the
// states viable accepts; visit sees every non-empty step's frontier. It
// returns the last step with a non-empty frontier.
func oracleSweep(m *elmore.Model, seed segState, maxSteps int, repeaters []tech.Element, viable func(segState) bool, visit func(k int, st []segState)) int {
	var cur, next []segState
	if viable(seed) {
		cur = append(cur, seed)
		visit(0, cur)
	}
	last := 0
	for k := 1; k <= maxSteps && len(cur) > 0; k++ {
		next = next[:0]
		for _, s := range cur {
			c2, d2 := m.AddEdge(s.c, s.d)
			if e := (segState{c2, d2}); viable(e) {
				next = appendState(next, e)
			}
			for _, r := range repeaters {
				cg, dg := m.AddGate(r, c2, d2)
				if g := (segState{cg, dg}); viable(g) {
					next = appendState(next, g)
				}
			}
		}
		if len(next) > 0 {
			last = k
			visit(k, next)
		}
		cur, next = next, cur
	}
	return last
}

// oracleReach is the per-call segment reach: the register (or its
// componentwise minimum with the FIFO) as the seed, viable while
// d + closeMinR·c ≤ T − closeK.
func oracleReach(m *elmore.Model, T float64, maxReach int, fifoOpens bool, closeK, closeMinR float64) int {
	reg, fifo := m.Tech().Register, m.Tech().FIFO
	seed := segState{reg.C, reg.Setup}
	if fifoOpens {
		seed = segState{math.Min(seed.c, fifo.C), math.Min(seed.d, fifo.Setup)}
	}
	limit := T - closeK
	return oracleSweep(m, seed, maxReach, m.Tech().Buffers, func(s segState) bool { return s.d+closeMinR*s.c <= limit }, func(int, []segState) {})
}

// oracleSegBound is the per-call segBound table. The latch kind's line
// also repeats through the latch.
func oracleSegBound(m *elmore.Model, limit float64, reach int, kind segKind) segBound {
	tc := m.Tech()
	reg, fifo := tc.Register, tc.FIFO
	fifoCloses := kind == fifoClosedSeg
	sb := newSegBound(tc, limit, kind)
	repeaters := tc.Buffers
	if kind == latchSeg {
		repeaters = append(slices.Clip(tc.Buffers), tc.Latch())
	}
	closeK := reg.K
	if fifoCloses {
		closeK = math.Min(closeK, fifo.K)
	}
	closeAt := func(s segState) float64 {
		v := s.d + reg.R*s.c + reg.K
		if fifoCloses {
			v = math.Min(v, s.d+fifo.R*s.c+fifo.K)
		}
		return v
	}
	raw := make([]float64, reach+1)
	for i := range raw {
		raw[i] = math.Inf(1)
	}
	oracleSweep(m, segState{sb.cmin, 0}, reach, repeaters, func(s segState) bool { return s.d+sb.slope*s.c+closeK <= limit }, func(k int, st []segState) {
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

// oracleKeyBound is the per-call keyBound table and rUB.
func oracleKeyBound(m *elmore.Model, key float64, reach int, fifoOpens bool) keyBound {
	tc := m.Tech()
	kb := keyBound{limit: key + boundEps(key)}
	setup := tc.Register.Setup
	if fifoOpens {
		setup = math.Min(setup, tc.FIFO.Setup)
	}
	add := make([]float64, reach+1)
	for i := range add {
		add[i] = math.Inf(1)
	}
	seed := segState{newSegBound(tc, 0, kindOf(fifoOpens, false)).cmin, 0}
	oracleSweep(m, seed, reach, tc.Buffers, func(s segState) bool { return s.d <= kb.limit }, func(k int, st []segState) {
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

// resetCurves empties the process-wide curve cache, so a test starts from
// curves no earlier test grew.
func resetCurves() {
	curveCache.mu.Lock()
	curveCache.sets = nil
	curveCache.mu.Unlock()
}

// checkTableAgainst requires a copied table to agree with the oracle's
// wherever a search at limit could tell them apart: entries at or below
// the limit bit for bit, entries above it above it.
func checkTableAgainst(t *testing.T, label string, got, want []float64, limit float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: table has %d entries, oracle %d", label, len(got), len(want))
	}
	for k := range want {
		if (want[k] <= limit || got[k] <= limit) && math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: entry %d = %v, oracle %v (limit %v)", label, k, got[k], want[k], limit)
		}
	}
}

// checkNondecreasing requires m's published curve of table tbl and kind k
// to be nondecreasing in the edge count: the seed dominates every state
// one edge from it, so dropping a labeling's first edge never costs more.
// This is why segBound's suffix minimum never changes an entry.
func checkNondecreasing(t *testing.T, label string, m *elmore.Model, tbl int, k segKind) {
	t.Helper()
	c := curvesFor(m).curves[tbl][k].Load()
	for i := 1; i < len(c.rec); i++ {
		if c.rec[i] < c.rec[i-1] {
			t.Fatalf("%s: curve entry %d = %v below entry %d = %v", label, i, c.rec[i], i-1, c.rec[i-1])
		}
	}
}

// checkCurvesMatchOracle compares, for one model at period T (or key K)
// and length n, every reach, segBound table and keyBound table the curves
// give against the per-call oracle, with the prune decisions on a lattice
// of (c, d, need) and (d, dist). The latch kind has a segBound table only.
func checkCurvesMatchOracle(t *testing.T, label string, m *elmore.Model, T float64, n int) {
	t.Helper()
	tc := m.Tech()
	b := new(Bounds)
	for _, kind := range []struct {
		name string
		k    segKind
	}{{"plain", plainSeg}, {"fifo-closed", fifoClosedSeg}, {"fifo-opened", fifoOpenedSeg}, {"latch", latchSeg}} {
		lbl := label + "/" + kind.name
		fifoOpens, fifoCloses := kind.k == fifoOpenedSeg, kind.k == fifoClosedSeg
		if kind.k != latchSeg { // the latch router reads no reach
			K, R := closing(tc, fifoCloses)
			if got, want := segmentReach(m, T, n, kind.k), oracleReach(m, T, n, fifoOpens, K, R); got != want {
				t.Fatalf("%s: reach %d, oracle %d", lbl, got, want)
			}
		}
		limit := T + boundEps(T)
		got := b.segBound(0, m, limit, n, kind.k)
		want := oracleSegBound(m, limit, n, kind.k)
		checkTableAgainst(t, lbl+" rem", got.rem, want.rem, limit)
		checkNondecreasing(t, lbl+" rem", m, remTable, kind.k)
		for need := -1; need <= n+1; need++ {
			for i := 0; i <= 8; i++ {
				c := want.cmin + float64(i)*0.02
				for j := 0; j <= 16; j++ {
					d := limit * float64(j) / 16
					if got.prune(c, d, need) != want.prune(c, d, need) {
						t.Fatalf("%s: prune(c=%g, d=%g, need=%d) = %t, oracle %t", lbl, c, d, need, got.prune(c, d, need), want.prune(c, d, need))
					}
				}
			}
		}
		if fifoCloses || kind.k == latchSeg {
			continue // no key table closes into the FIFO or repeats through a latch
		}
		gk, wk := b.keyBound(m, T, n, fifoOpens), oracleKeyBound(m, T, n, fifoOpens)
		if gk.rUB != wk.rUB {
			t.Fatalf("%s: key rUB %d, oracle %d", lbl, gk.rUB, wk.rUB)
		}
		checkTableAgainst(t, lbl+" key", gk.add, wk.add, wk.limit)
		checkNondecreasing(t, lbl+" key", m, keyTable, kind.k)
		for dist := 0; dist <= n+1; dist++ {
			for j := 0; j <= 16; j++ {
				d := wk.limit * float64(j) / 16
				if gk.prune(d, dist) != wk.prune(d, dist) {
					t.Fatalf("%s: key prune(d=%g, dist=%d) = %t, oracle %t", lbl, d, dist, gk.prune(d, dist), wk.prune(d, dist))
				}
			}
		}
	}
}

// TestCurvesMatchPerCallSweeps checks the per-model curves against the
// per-call sweeps they replace, for the four test libraries at two
// pitches, with periods and lengths visited in increasing, decreasing and
// mixed order, so curves are grown, reused at a looser limit or a longer
// length, and grown again. On weakBufTech alone the latch line differs
// from the plain one.
func TestCurvesMatchPerCallSweeps(t *testing.T) {
	resetCurves()
	type visit struct {
		T float64
		n int
	}
	visits := []visit{
		{60, 4}, {150, 12}, {300, 25}, {450, 40}, {800, 60}, // growing limit and length
		{700, 55}, {420, 30}, {200, 10}, {90, 3}, // reusing the grown curves
		{1500, 20}, {100, 90}, {3000, 120}, {380, 70}, // limit up with length down, and back
	}
	for _, tc := range []*tech.Tech{testTech(), multiTech(), skewTech(), weakBufTech()} {
		for _, pitch := range []float64{0.25, 0.5} {
			for _, v := range visits {
				// A fresh Model per visit, as the service builds one per
				// request: curves are found by value.
				m := elmore.MustNewModel(tc, pitch)
				checkCurvesMatchOracle(t, fmt.Sprintf("%s/%g/T=%g/n=%d", tc.Name, pitch, v.T, v.n), m, v.T, v.n)
			}
		}
	}
}

// TestCurvesNeverSharedAcrossLibraries interleaves libraries whose wires
// and pitch are equal but whose buffers (testTech, multiTech) or register
// and FIFO (multiTech, skewTech) differ: each must keep its own curves,
// while models of equal values share one set.
func TestCurvesNeverSharedAcrossLibraries(t *testing.T) {
	resetCurves()
	techs := []*tech.Tech{testTech(), multiTech(), skewTech()}
	sets := map[*curveSet]string{}
	for round := 0; round < 2; round++ {
		for _, tc := range techs {
			m := elmore.MustNewModel(tc, 0.25)
			cs := curvesFor(m)
			if name, ok := sets[cs]; ok && name != tc.Name {
				t.Fatalf("%s shares a curve set with %s", tc.Name, name)
			}
			sets[cs] = tc.Name
			T := 250 + 200*float64(round)
			checkCurvesMatchOracle(t, fmt.Sprintf("%s/round=%d", tc.Name, round), m, T, 30+10*round)
		}
	}
	if len(sets) != len(techs) {
		t.Fatalf("%d curve sets for %d libraries", len(sets), len(techs))
	}
	// A copy of a library under another name and pointer is the same
	// library electrically.
	cp := *multiTech()
	cp.Name = "copy"
	if curvesFor(elmore.MustNewModel(&cp, 0.25)) != curvesFor(elmore.MustNewModel(multiTech(), 0.25)) {
		t.Fatal("an electrically equal library got its own curve set")
	}
}

// TestCurveCacheBounded fills the cache past its bound: the least
// recently used set is dropped and the cache never grows past
// maxCurveSets.
func TestCurveCacheBounded(t *testing.T) {
	resetCurves()
	var first *curveSet
	for i := 0; i < maxCurveSets+3; i++ {
		tc := testTech()
		tc.Wire.RPerMM += float64(i)
		cs := curvesFor(elmore.MustNewModel(tc, 0.25))
		if i == 0 {
			first = cs
		}
	}
	curveCache.mu.Lock()
	n := len(curveCache.sets)
	curveCache.mu.Unlock()
	if n != maxCurveSets {
		t.Fatalf("cache holds %d sets, bound %d", n, maxCurveSets)
	}
	if curvesFor(elmore.MustNewModel(testTech(), 0.25)) == first {
		t.Fatal("the least recently used set survived past the bound")
	}
}

// TestCurveCacheHoldsWidthLadders looks up, as a planner's nets do one
// after another, two libraries' full wire-width ladders in turn (the
// nominal model and maxCurveSets/2 − 1 wider ones each): after the first
// round every lookup must find the set the first round built.
func TestCurveCacheHoldsWidthLadders(t *testing.T) {
	resetCurves()
	var models []*elmore.Model
	for _, tc := range []*tech.Tech{testTech(), multiTech()} {
		for i := 0; i < maxCurveSets/2; i++ {
			wt, err := tc.WithWireWidth(1 + float64(i)/4)
			if err != nil {
				t.Fatal(err)
			}
			models = append(models, elmore.MustNewModel(wt, 0.25))
		}
	}
	first := make([]*curveSet, len(models))
	for round := 0; round < 3; round++ {
		for i, m := range models {
			cs := curvesFor(m)
			if round == 0 {
				first[i] = cs
			} else if cs != first[i] {
				t.Fatalf("round %d: model %d of %d got a new curve set", round, i, len(models))
			}
		}
	}
}

// TestSecondSearchBuildsNoCurve runs each kernel twice on the same problem
// through a fresh Model of equal values, as the service does per request:
// the second run must find every curve it reads already swept.
func TestSecondSearchBuildsNoCurve(t *testing.T) {
	resetCurves()
	g := grid.MustNew(30, 20, 0.25)
	g.AddObstacle(geom.R(8, 4, 14, 16))
	build := func() *Problem {
		m := elmore.MustNewModel(skewTech(), 0.25)
		p, err := NewProblem(g, m, g.ID(geom.Pt(1, 2)), g.ID(geom.Pt(28, 17)))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	runs := map[string]func(p *Problem) (*Result, error){
		"rbp":      func(p *Problem) (*Result, error) { return RBP(p, 300, Options{}) },
		"gals":     func(p *Problem) (*Result, error) { return GALS(p, 350, 280, Options{}) },
		"fastpath": func(p *Problem) (*Result, error) { return FastPath(p, Options{}) },
	}
	for name, run := range runs {
		if _, err := run(build()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := build()
		cs := curvesFor(p.Model)
		var before [numTables][numSegKinds]*curve
		for i := range before {
			for k := range before[i] {
				before[i][k] = cs.curves[i][k].Load()
			}
		}
		if _, err := run(p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range before {
			for k := range before[i] {
				if cs.curves[i][k].Load() != before[i][k] {
					t.Errorf("%s: the second search swept table %d kind %d again", name, i, k)
				}
			}
		}
	}
}

// TestCurvesConcurrentGrowth grows one model's curves from several
// goroutines at once, each visiting the periods in its own order: every
// search must return exactly what it returns on a fresh cache alone. Run
// it under -race.
func TestCurvesConcurrentGrowth(t *testing.T) {
	g := grid.MustNew(24, 16, 0.25)
	g.AddObstacle(geom.R(6, 3, 10, 12))
	problem := func() *Problem {
		p, err := NewProblem(g, elmore.MustNewModel(skewTech(), 0.25), g.ID(geom.Pt(0, 1)), g.ID(geom.Pt(23, 14)))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	periods := []float64{220, 300, 420, 650, 1200}
	runs := []func(T float64) (*Result, error){
		func(T float64) (*Result, error) { return RBP(problem(), T, Options{}) },
		func(T float64) (*Result, error) { return GALS(problem(), T, 0.8*T, Options{}) },
		func(T float64) (*Result, error) { return FastPath(problem(), Options{}) },
	}
	type outcome struct {
		s   resultSnap
		err error
	}
	result := func(res *Result, err error) outcome {
		if err != nil {
			return outcome{err: err}
		}
		return outcome{s: snap(res)}
	}
	want := map[[2]int]outcome{}
	for i, T := range periods {
		for k, run := range runs {
			resetCurves()
			want[[2]int{i, k}] = result(run(T))
		}
	}
	resetCurves()
	orders := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}, {3, 4, 0, 2, 1}}
	var wg sync.WaitGroup
	for _, order := range orders {
		wg.Add(1)
		go func(order []int) {
			defer wg.Done()
			for _, i := range order {
				for k, run := range runs {
					if got := result(run(periods[i])); got != want[[2]int{i, k}] {
						t.Errorf("T=%g kernel %d: concurrent result %+v, alone %+v", periods[i], k, got, want[[2]int{i, k}])
					}
				}
			}
		}(order)
	}
	wg.Wait()
}
