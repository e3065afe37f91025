package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"clockroute/internal/elmore"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/oracle"
	"clockroute/internal/tech"
)

// weakBufTech is CongPan70nm with a buffer the register, and so the latch,
// out-drives (K 60 ps, R 320 Ω against 22 ps and 160 Ω): the one test
// library on which the latch lowers the latch line below the plain line.
func weakBufTech() *tech.Tech {
	t := tech.CongPan70nm()
	t.Name = "weak-buffer"
	t.Buffers[0].K, t.Buffers[0].R = 60, 320
	return t
}

// TestLatchFloorBracket checks the latch router's deepening floor on
// straight lines of n edges, in ps before the division by T: the sink's
// own deadline test, Setup + slope·(C(reg) − cmin) + rem[n] on the latch
// line (latchSearch), lies at or above the floor it replaced,
// K + Setup + n·edgeR·edgeC/2, and at or below oracle.MinDelay, the
// line's least buffered delay, which every latch route's k·T must cover.
// On CongPan70nm, whose latch and buffer are one element, it equals the
// oracle; on weakBufTech the latch line lies strictly below the plain
// line somewhere, so the latch among its repeaters is exercised.
func TestLatchFloorBracket(t *testing.T) {
	var lengths []int
	for n := 1; n <= 20; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 24, 30, 40, 50, 64, 80, 100, 128, 160)
	longest := lengths[len(lengths)-1]
	const lim = 1e7 // far above every line's delay: no entry is dropped
	for i, tc := range []*tech.Tech{testTech(), multiTech(), skewTech(), weakBufTech()} {
		tight, weak, lowered := i == 0, i == 3, false
		for _, pitch := range []float64{0.125, 0.25, 0.5} {
			m := elmore.MustNewModel(tc, pitch)
			g := grid.MustNew(longest+1, 1, pitch)
			p, err := NewProblem(g, m, 0, longest)
			if err != nil {
				t.Fatal(err)
			}
			b := new(Scratch).prepBounds(p)
			sb := latchBound(b, m, lim)
			plain := b.segBound(1, m, lim+boundEps(lim), int(b.maxSrc), plainSeg)
			reg := tc.Register
			for _, n := range lengths {
				lbl := fmt.Sprintf("%d:%s/%g/n=%d", i, tc.Name, pitch, n)
				floor := reg.Setup + sb.slope*(reg.C-sb.cmin) + sb.rem[n]
				old := reg.K + reg.Setup + float64(n)*m.EdgeR()*m.EdgeC()/2
				best, err := oracle.MinDelay(oracle.Line{Edges: n, PitchMM: pitch}, tc)
				if err != nil {
					t.Fatal(err)
				}
				if old > floor*(1+1e-12) || floor > best*(1+1e-12) {
					t.Errorf("%s: want old floor %v ≤ floor %v ≤ oracle %v", lbl, old, floor, best)
				}
				if tight && math.Abs(floor-best) > 1e-9*best {
					t.Errorf("%s: floor %v, oracle %v: one element as buffer and latch must be tight", lbl, floor, best)
				}
				lowered = lowered || sb.rem[n] < plain.rem[n]
			}
		}
		if weak && !lowered {
			t.Errorf("%s: the latch never lowers the latch line", tc.Name)
		}
	}
}

// TestLatchFloorPastMaxCycles routes 2 mm edges at a 40 ps period: no
// labeling of the sink's distance fits even the largest launch the
// deepening may use, so the latch line's entry there is +Inf and the
// search must report ErrNoPath at maxCycles without opening a wave. (Go's
// conversion of the NaN or +Inf floor to int is implementation-defined;
// on amd64 it would restart the deepening at k = 1.) With the bounds off
// the deepening still tries every k from 1.
func TestLatchFloorPastMaxCycles(t *testing.T) {
	g := grid.MustNew(10, 3, 2.0)
	p, err := NewProblem(g, elmore.MustNewModel(testTech(), 2.0), g.ID(geom.Pt(0, 1)), g.ID(geom.Pt(9, 1)))
	if err != nil {
		t.Fatal(err)
	}
	waves := func(opts Options) int {
		tr := &countingTracer{}
		opts.Trace = tr
		if _, k, _, err := LatchSearch(p, 40, 6, opts); !errors.Is(err, ErrNoPath) || k != 6 {
			t.Fatalf("%+v: k=%d err=%v, want k=6 and ErrNoPath", opts, k, err)
		}
		return tr.waves
	}
	if n := waves(Options{}); n != 0 {
		t.Errorf("bounds on: %d waves opened, want none", n)
	}
	if n := waves(Options{DisableBounds: true}); n < 6 {
		t.Errorf("bounds off: %d waves opened, want one or more per k = 1..6", n)
	}
}
