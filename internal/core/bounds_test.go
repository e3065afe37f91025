package core

import (
	"math/rand"
	"slices"
	"testing"

	"clockroute/internal/candidate"
	"clockroute/internal/elmore"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/route"
	"clockroute/internal/tech"
)

// skewTech is the multi-size buffer library with a register and a FIFO
// that differ from every buffer and from each other: a slower, larger
// register with setup time, and a FIFO with the least drive resistance
// and input capacitance of all elements but more intrinsic delay and
// setup — so the FIFO sets the z=1 table's seed and the z=0 table's slope.
func skewTech() *tech.Tech {
	t := tech.CongPan70nmMultiSize()
	t.Name = "skew"
	t.Register.R, t.Register.C, t.Register.K, t.Register.Setup = 200, 0.03, 30, 8
	t.FIFO.R, t.FIFO.C, t.FIFO.K, t.FIFO.Setup = 60, 0.008, 45, 15
	return t
}

// pathState is one candidate a kernel holds on the way to a routed path:
// its node, electrical state, and wave (RBP register count) or domain and
// accumulated latency (GALS).
type pathState struct {
	node  int32
	c, d  float64
	wave  int
	z     uint8
	l     float64
	label string
}

// pathStates rebuilds, sink to source, every candidate state along path
// with the kernels' own elmore.Model operations, so the (c, d) values are
// bitwise the ones the kernel pushed: the sink register, each edge
// arrival, each buffer, and each register or FIFO that opens a segment.
// ts and tt give the GALS periods (RBP passes its period for both).
func pathStates(p *Problem, path *route.Path, ts, tt float64) []pathState {
	m, tc := p.Model, p.tech()
	reg, fifo := tc.Register, tc.FIFO
	last := len(path.Nodes) - 1
	s := pathState{node: int32(path.Nodes[last]), c: reg.C, d: reg.Setup, label: "sink"}
	out := []pathState{s}
	for i := last - 1; i >= 0; i-- {
		s.node = int32(path.Nodes[i])
		s.c, s.d = m.AddEdge(s.c, s.d)
		s.label = "edge"
		out = append(out, s)
		if i == 0 {
			break
		}
		switch g := path.Gates[i]; {
		case g == candidate.GateNone:
			continue
		case g >= 0:
			s.c, s.d = m.AddGate(tc.Buffers[g], s.c, s.d)
			s.label = "buffer"
		case g == candidate.GateRegister:
			if s.z == 1 {
				s.l += ts
			} else {
				s.l += tt
			}
			s.wave++
			s.c, s.d = reg.C, reg.Setup
			s.label = "register"
		case g == candidate.GateFIFO:
			s.l += tt
			s.z = 1
			s.c, s.d = fifo.C, fifo.Setup
			s.label = "fifo"
		}
		out = append(out, s)
	}
	return out
}

// checkBoundsAdmitPath asserts that the delay-aware bound of the named
// kernel prunes no state along res, an unbounded optimum: a pruned
// on-path state would mean an inadmissible table or span, whether or not
// the bounded run happens to diverge on the instance. Each kernel's bound
// is built under the options it runs with, so on the states in the
// probe's wave rbp and gals also face the key test, and
// rbp-slack, whose answer need not hold the least key, faces none.
func checkBoundsAdmitPath(t *testing.T, label, kernel string, c *sweepCase, res *Result) {
	t.Helper()
	p := c.p
	sc := new(Scratch)
	var prune func(s pathState) bool
	ts, tt := c.T, c.T
	switch kernel {
	case "fastpath":
		sb, _, err := fastPathScheme().bound(p, Options{}, sc)
		if err != nil {
			t.Fatalf("%s: fastpath bound: %v", label, err)
		}
		prune = func(s pathState) bool { return sb.prune(s.node, 0, s.c, s.d, sb.flat.span[0]) }
	case "rbp", "rbp-slack":
		sb, _, err := rbpScheme(p, c.T).bound(p, Options{MaximizeSlack: kernel == "rbp-slack"}, sc)
		if err != nil {
			t.Fatalf("%s: rbp bound: %v", label, err)
		}
		prune = func(s pathState) bool {
			w := sb.spans(c.T * float64(s.wave))
			return sb.prune(s.node, 0, s.c, s.d, w.span[0]) || (w.keyed[0] && sb.keyPrune(s.node, s.c, s.d, 0))
		}
	case "gals":
		ts, tt = c.Ts, c.Tt
		sb, _, err := galsScheme(p, ts, tt).bound(p, Options{}, sc)
		if err != nil {
			t.Fatalf("%s: gals bound: %v", label, err)
		}
		prune = func(s pathState) bool {
			w := sb.spans(s.l)
			return sb.prune(s.node, s.z, s.c, s.d, w.span[s.z]) || (w.keyed[s.z] && sb.keyPrune(s.node, s.c, s.d, 0))
		}
	default:
		t.Fatalf("%s: unknown kernel %q", label, kernel)
	}
	for i, s := range pathStates(p, res.Path, ts, tt) {
		if prune(s) {
			t.Errorf("%s: bound prunes on-path state %d (%s at node %d, c=%g d=%g wave=%d z=%d l=%g) of the unbounded optimum",
				label, i, s.label, s.node, s.c, s.d, s.wave, s.z, s.l)
			return
		}
	}
}

// TestSegBoundAdmitsOptimalPaths is the direct admissibility check on
// hand-built instances where the segment bounds bind hardest: long lines
// and blocked dies at periods just above and well above the feasibility
// edge. The equivalence sweeps run the same check on every instance.
func TestSegBoundAdmitsOptimalPaths(t *testing.T) {
	line := grid.MustNew(61, 3, 0.25)
	blocked := grid.MustNew(40, 40, 0.25)
	blocked.AddObstacle(geom.R(10, 0, 12, 30))
	blocked.AddRegisterBlockage(geom.R(20, 10, 30, 40))
	blocked.AddWiringBlockage(geom.R(30, 5, 33, 25))
	cases := []*sweepCase{
		{p: problemOn(t, line, geom.Pt(0, 1), geom.Pt(60, 1)), T: 180, Ts: 170, Tt: 260},
		{p: problemOn(t, line, geom.Pt(0, 0), geom.Pt(60, 2)), T: 700, Ts: 400, Tt: 150},
		{p: problemOn(t, blocked, geom.Pt(0, 0), geom.Pt(39, 39)), T: 250, Ts: 300, Tt: 250},
		{p: problemOn(t, blocked, geom.Pt(39, 0), geom.Pt(0, 39)), T: 600, Ts: 850, Tt: 330},
	}
	for i, c := range cases {
		p := c.p
		runs := map[string]func() (*Result, error){
			"fastpath": func() (*Result, error) { return FastPath(p, Options{DisableBounds: true}) },
			"rbp":      func() (*Result, error) { return RBP(p, c.T, Options{DisableBounds: true}) },
			"gals":     func() (*Result, error) { return GALS(p, c.Ts, c.Tt, Options{DisableBounds: true}) },
		}
		for kernel, run := range runs {
			res, err := run()
			if err != nil {
				t.Fatalf("case %d %s: %v", i, kernel, err)
			}
			checkBoundsAdmitPath(t, kernel, kernel, c, res)
		}
	}
}

// TestSegBoundLowerBoundsContinuations checks the segBound inequality
// itself, away from any search: for random states of each segment kind —
// opened by any element that can open it, then grown by random edges and
// buffers — and random continuations of j edges with at most one repeater
// per node (a buffer, or on the latch line also the latch), closed by any
// element that can close the kind, a close within the limit is never
// below d + slope·(c − cmin) + rem[j]. Tight periods exercise the table's
// state dropping; the FIFO-distinct skewTech exercises the seed, slope
// and closer choices, and weakBufTech a latch that out-drives the buffer.
func TestSegBoundLowerBoundsContinuations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const reach = 40
	for _, tc := range []*tech.Tech{testTech(), multiTech(), skewTech(), weakBufTech()} {
		for _, pitch := range []float64{0.25, 0.5} {
			m := elmore.MustNewModel(tc, pitch)
			for _, kind := range []struct {
				name string
				k    segKind
			}{{"rbp", plainSeg}, {"gals-z0", fifoClosedSeg}, {"gals-z1", fifoOpenedSeg}, {"latch", latchSeg}} {
				for _, T := range []float64{150, 400, 1e6} {
					openers := append([]tech.Element{tc.Register}, tc.Buffers...)
					closers := []tech.Element{tc.Register}
					repeaters := tc.Buffers
					switch kind.k {
					case fifoOpenedSeg:
						openers = append(openers, tc.FIFO)
					case fifoClosedSeg:
						closers = append(closers, tc.FIFO)
					case latchSeg:
						openers = append(openers, tc.Latch())
						repeaters = append(slices.Clip(tc.Buffers), tc.Latch())
					}
					sb := new(Bounds).segBound(0, m, T+boundEps(T), reach, kind.k)
					for trial := 0; trial < 400; trial++ {
						o := openers[rng.Intn(len(openers))]
						c, d := o.C, o.Setup
						for i := rng.Intn(6); i > 0; i-- {
							c, d = m.AddEdge(c, d)
						}
						// The continuation: a buffer at the candidate's own
						// node only after an edge, then j edges, each
						// optionally followed by one buffer.
						cc, dd := c, d
						if c != o.C && rng.Intn(3) == 0 {
							cc, dd = m.AddGate(repeaters[rng.Intn(len(repeaters))], cc, dd)
						}
						j := rng.Intn(reach + 1)
						for k := 0; k < j; k++ {
							cc, dd = m.AddEdge(cc, dd)
							if k < j-1 && rng.Intn(4) == 0 {
								cc, dd = m.AddGate(repeaters[rng.Intn(len(repeaters))], cc, dd)
							}
						}
						cl := closers[rng.Intn(len(closers))]
						closeAt := m.DriveInto(cl, cc, dd)
						if closeAt > T {
							continue // infeasible: the bound owes it nothing
						}
						if sb.prune(c, d, j) {
							t.Fatalf("%s/%g/%s T=%g: state (c=%g, d=%g) closes at %g after %d edges into %s, yet prune fires (bound %g)",
								tc.Name, pitch, kind.name, T, c, d, closeAt, j, cl.Name, d+sb.slope*(c-sb.cmin)+sb.rem[min(j, len(sb.rem)-1)])
						}
						if bound := d + sb.slope*(c-sb.cmin) + sb.rem[j]; bound > closeAt+1e-9 {
							t.Fatalf("%s/%g/%s T=%g: bound %g above the close %g of a %d-edge continuation into %s",
								tc.Name, pitch, kind.name, T, bound, closeAt, j, cl.Name)
						}
					}
				}
			}
		}
	}
}

// TestKeyTableLowerBoundsContinuations checks the keyBound table the same
// way: for random states of the accepting domain — opened by any element
// that can open one of its candidates, then grown by random edges — and
// random continuations of j edges to the source with at most one buffer
// per node (none at the source), a key reached within the limit is never
// below d + add[j] (the table drops ideal states past the limit, so it
// owes larger keys nothing), and a key within K is never pruned. A source
// segment opened by the register (or, for GALS z=1, the FIFO) whose key
// fits K spans at most rUB edges.
func TestKeyTableLowerBoundsContinuations(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const reach = 40
	for _, tc := range []*tech.Tech{testTech(), multiTech(), skewTech()} {
		for _, pitch := range []float64{0.25, 0.5} {
			m := elmore.MustNewModel(tc, pitch)
			for _, fifoOpens := range []bool{false, true} {
				openers := append([]tech.Element{tc.Register}, tc.Buffers...)
				segOpeners := []tech.Element{tc.Register}
				if fifoOpens {
					openers = append(openers, tc.FIFO)
					segOpeners = append(segOpeners, tc.FIFO)
				}
				for _, K := range []float64{40, 150, 600, 1e6} {
					kb := new(Bounds).keyBound(m, K, reach, fifoOpens)
					if kb.add[0] != 0 {
						t.Fatalf("%s/%g fifo=%t K=%g: add[0] = %g, want 0", tc.Name, pitch, fifoOpens, K, kb.add[0])
					}
					for trial := 0; trial < 400; trial++ {
						o := openers[rng.Intn(len(openers))]
						c, d := o.C, o.Setup
						for i := rng.Intn(6); i > 0; i-- {
							c, d = m.AddEdge(c, d)
						}
						// The continuation: a buffer at the candidate's own
						// node only after an edge, then j edges, each but the
						// last optionally followed by one buffer.
						cc, dd := c, d
						if c != o.C && rng.Intn(3) == 0 {
							cc, dd = m.AddGate(tc.Buffers[rng.Intn(len(tc.Buffers))], cc, dd)
						}
						j := rng.Intn(reach + 1)
						for k := 0; k < j; k++ {
							cc, dd = m.AddEdge(cc, dd)
							if k < j-1 && rng.Intn(4) == 0 {
								cc, dd = m.AddGate(tc.Buffers[rng.Intn(len(tc.Buffers))], cc, dd)
							}
						}
						if bound := d + kb.add[j]; dd <= kb.limit && bound > dd+1e-9 {
							t.Fatalf("%s/%g fifo=%t K=%g: bound %g above the key %g of a %d-edge continuation from (c=%g, d=%g)",
								tc.Name, pitch, fifoOpens, K, bound, dd, j, c, d)
						}
						if dd <= K && kb.prune(d, j) {
							t.Fatalf("%s/%g fifo=%t K=%g: key %g after %d edges from (c=%g, d=%g) fits, yet prune fires",
								tc.Name, pitch, fifoOpens, K, dd, j, c, d)
						}
					}
					// Source segments: opened at a segment opener, j edges.
					for trial := 0; trial < 400; trial++ {
						o := segOpeners[rng.Intn(len(segOpeners))]
						cc, dd := o.C, o.Setup
						j := rng.Intn(reach + 1)
						for k := 0; k < j; k++ {
							cc, dd = m.AddEdge(cc, dd)
							if k < j-1 && rng.Intn(3) == 0 {
								cc, dd = m.AddGate(tc.Buffers[rng.Intn(len(tc.Buffers))], cc, dd)
							}
						}
						if dd <= K && j > kb.rUB {
							t.Fatalf("%s/%g fifo=%t K=%g: a %d-edge source segment opened by %s reaches key %g, past rUB = %d",
								tc.Name, pitch, fifoOpens, K, j, o.Name, dd, kb.rUB)
						}
					}
				}
			}
		}
	}
}

// TestMaxClosesMatchesBudgetForm pins maxCloses to the float form of the
// budget comparison it replaces, including exact-fit and overshoot edges.
func TestMaxClosesMatchesBudgetForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		base := float64(rng.Intn(5000)) / 4
		T := float64(20+rng.Intn(980)) / 2
		maxLat := base + T*float64(rng.Intn(12)) + float64(rng.Intn(3)-1)*1e-7
		n := maxCloses(base, T, maxLat)
		if base > maxLat {
			if n != -1 {
				t.Fatalf("maxCloses(%g, %g, %g) = %d, want -1", base, T, maxLat, n)
			}
			continue
		}
		if base+float64(n)*T > maxLat || base+float64(n+1)*T <= maxLat {
			t.Fatalf("maxCloses(%g, %g, %g) = %d: not the largest fitting count", base, T, maxLat, n)
		}
	}
}
