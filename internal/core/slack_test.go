package core

import (
	"math"
	"testing"

	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/route"
)

// slackFromPath recomputes the source+sink slack from the independently
// verified segment delays.
func slackFromPath(p *Problem, res *Result, T float64) float64 {
	segs := res.Path.SegmentDelays(p.Model)
	if len(segs) == 1 {
		return 2 * (T - segs[0])
	}
	return (T - segs[0]) + (T - segs[len(segs)-1])
}

func TestMaxSlackMatchesSegmentDelays(t *testing.T) {
	g := grid.MustNew(41, 5, 0.5)
	p := problemOn(t, g, geom.Pt(0, 2), geom.Pt(40, 2))
	for _, T := range []float64{300, 500, 900} {
		res, err := RBP(p, T, Options{MaximizeSlack: true})
		if err != nil {
			t.Fatalf("T=%g: %v", T, err)
		}
		if _, err := route.VerifySingleClock(res.Path, g, p.Model, T); err != nil {
			t.Fatalf("T=%g: verifier: %v", T, err)
		}
		want := slackFromPath(p, res, T)
		if math.Abs(res.SlackPS-want) > 1e-6 {
			t.Errorf("T=%g: SlackPS %g != recomputed %g", T, res.SlackPS, want)
		}
		if res.SlackPS < 0 || res.SlackPS > 2*T {
			t.Errorf("T=%g: slack %g out of [0, 2T]", T, res.SlackPS)
		}
	}
}

func TestMaxSlackPreservesMinimumLatency(t *testing.T) {
	g := grid.MustNew(31, 9, 0.5)
	g.AddObstacle(geom.R(8, 2, 22, 7))
	p := problemOn(t, g, geom.Pt(0, 4), geom.Pt(30, 4))
	for _, T := range []float64{250, 400, 700} {
		plain, err := RBP(p, T, Options{})
		if err != nil {
			t.Fatalf("T=%g: %v", T, err)
		}
		slacky, err := RBP(p, T, Options{MaximizeSlack: true})
		if err != nil {
			t.Fatalf("T=%g slack: %v", T, err)
		}
		if slacky.Latency != plain.Latency || slacky.Registers != plain.Registers {
			t.Errorf("T=%g: max-slack changed the optimum: (%g,%d) vs (%g,%d)",
				T, slacky.Latency, slacky.Registers, plain.Latency, plain.Registers)
		}
		// The whole point: slack must be at least the first-found solution's.
		if slacky.SlackPS < plain.SlackPS-1e-6 {
			t.Errorf("T=%g: max-slack %g worse than first-found %g", T, slacky.SlackPS, plain.SlackPS)
		}
	}
}

func TestMaxSlackStrictlyImprovesSomewhere(t *testing.T) {
	// Sweep instances until max-slack strictly beats the first-found
	// arrival: proof the extension is not a no-op.
	improved := false
	for _, w := range []int{21, 26, 31, 36, 41} {
		g := grid.MustNew(w, 5, 0.5)
		p := problemOn(t, g, geom.Pt(0, 2), geom.Pt(w-1, 2))
		for _, T := range []float64{260, 330, 420} {
			plain, err1 := RBP(p, T, Options{})
			slacky, err2 := RBP(p, T, Options{MaximizeSlack: true})
			if err1 != nil || err2 != nil {
				continue
			}
			if slacky.SlackPS > plain.SlackPS+1e-6 {
				improved = true
			}
		}
	}
	if !improved {
		t.Error("max-slack never improved on the first-found solution across the sweep")
	}
}

func TestPlainRBPAlsoReportsSlack(t *testing.T) {
	g := grid.MustNew(41, 3, 0.5)
	p := problemOn(t, g, geom.Pt(0, 1), geom.Pt(40, 1))
	res, err := RBP(p, 400, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := slackFromPath(p, res, 400)
	if math.Abs(res.SlackPS-want) > 1e-6 {
		t.Errorf("plain RBP SlackPS %g != recomputed %g", res.SlackPS, want)
	}
}
