package clockroute

import (
	"testing"

	"clockroute/internal/bench"
	"clockroute/internal/core"
	"clockroute/internal/elmore"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/latch"
	"clockroute/internal/tech"
)

// TestStatsKilled pins Stats.Killed, the queued candidates a later arrival
// marked Dead. On the reduced benchmark problem every kernel reports some
// with the bounds off, and every count repeats exactly on a second run,
// with the bounds off and on. The periods are
// ones where the bounded RBP and GALS searches kill too; bounded FastPath
// kills nothing here, its bounds cutting every dominated candidate before
// a store sees it. The latch router runs on a 41×5 line instead, because
// the reduced die costs it seconds per run.
func TestStatsKilled(t *testing.T) {
	tc := tech.CongPan70nm()
	prob, err := bench.ReducedScale().Build(tc)
	if err != nil {
		t.Fatal(err)
	}
	lg := grid.MustNew(41, 5, 0.5)
	line, err := core.NewProblem(lg, elmore.MustNewModel(tc, 0.5), lg.ID(geom.Pt(0, 2)), lg.ID(geom.Pt(40, 2)))
	if err != nil {
		t.Fatal(err)
	}
	killed := func(r *core.Result, err error) (int, error) {
		if err != nil {
			return 0, err
		}
		return r.Stats.Killed, nil
	}
	for _, k := range []struct {
		name string
		p    *core.Problem
		run  func(core.Options) (int, error)
	}{
		{"rbp", prob, func(o core.Options) (int, error) { return killed(core.RBP(prob, 400, o)) }},
		{"rbp-array", prob, func(o core.Options) (int, error) { return killed(core.RBPArrayQueues(prob, 400, o)) }},
		{"gals", prob, func(o core.Options) (int, error) { return killed(core.GALS(prob, 400, 350, o)) }},
		{"fastpath", prob, func(o core.Options) (int, error) { return killed(core.FastPath(prob, o)) }},
		{"latch", line, func(o core.Options) (int, error) {
			r, err := latch.Route(line, 400, 0, o)
			if err != nil {
				return 0, err
			}
			return r.Stats.Killed, nil
		}},
	} {
		count := func(o core.Options) int {
			n, err := k.run(o)
			if err != nil {
				t.Fatalf("%s %+v: %v", k.name, o, err)
			}
			return n
		}
		unbounded := core.Options{DisableBounds: true}
		want := count(unbounded)
		if want == 0 {
			t.Fatalf("%s, bounds off: Stats.Killed = 0, want the store kills", k.name)
		}
		if got := count(unbounded); got != want {
			t.Errorf("%s, bounds off: Stats.Killed %d on a repeated run, first run %d", k.name, got, want)
		}
		if bounded, again := count(core.Options{}), count(core.Options{}); again != bounded {
			t.Errorf("%s, bounds on: Stats.Killed %d on a repeated run, first run %d", k.name, again, bounded)
		}
	}
}
