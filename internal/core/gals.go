package core

import (
	"fmt"
	"math"
	"time"

	"clockroute/internal/candidate"
	"clockroute/internal/faultpoint"
)

// latencyEps groups Q* entries whose accumulated latencies differ only by
// floating-point noise into the same wavefront (latencies are sums of Ts
// and Tt multiples, so genuine differences are at least fractions of a ps).
const latencyEps = 1e-6

// GALS finds a feasible MCFIFO path of minimum total latency
// Ts×(pS+1) + Tt×(pT+1) between a source clocked at Ts and a sink clocked
// at Tt (Fig. 12 of the paper).
//
// Exactly one mixed-clock FIFO must appear on the path; relay stations are
// modeled as registers (Section IV-B). Candidates carry a domain flag z
// (0 until the FIFO is inserted, walking backward from the sink; 1 after)
// and the accumulated latency l from the most recent synchronizer back to
// the sink. Q is ordered by combinational delay d; Q* by l, and wavefronts
// of equal l are extracted together since candidates with different
// latencies are incomparable.
func GALS(p *Problem, Ts, Tt float64, opts Options) (res *Result, err error) {
	sc := GetScratch()
	defer containSearchPanic(sc, &res, &err)
	return gals(p, Ts, Tt, opts, sc, nil)
}

// galsBounds prepares the admissible-bound state for GALS: the BFS
// distance field, per-domain segment reaches (source-side segments may
// start from the FIFO; sink-side segments may close into it), a latency
// incumbent from the kernel probed on one shortest path, and the
// per-domain delay tables. Only an abort propagates as err.
func galsBounds(p *Problem, Ts, Tt float64, opts Options, sc *Scratch) (*galsBound, int, error) {
	sh := opts.Share
	bd := sc.prepBoundsShared(p, sh)
	tc := p.tech()
	fifo := tc.FIFO
	minR := tc.MinBufferR()
	reachS := bd.segmentReachShared(sh, p, p.Model, Ts, int(bd.maxSrc), true, tc.Register.K, minR)
	reachT := bd.segmentReachShared(sh, p, p.Model, Tt, int(bd.maxSrc), false,
		math.Min(tc.Register.K, fifo.K), math.Min(minR, fifo.R))
	inc, probeConfigs, err := sc.probe(p, opts, func(o Options, win *nodeFlags) (*Result, error) {
		return gals(p, Ts, Tt, o, sc, win)
	})
	if err != nil {
		return nil, 0, err
	}
	maxLat := math.Inf(1)
	if inc != nil {
		maxLat = inc.Latency + latencyEps
	}
	return bd.newGALSBound(p.Model, Ts, Tt, maxLat, reachS, reachT), probeConfigs, nil
}

func gals(p *Problem, Ts, Tt float64, opts Options, sc *Scratch, win *nodeFlags) (*Result, error) {
	if Ts <= 0 || Tt <= 0 {
		return nil, fmt.Errorf("core: non-positive clock period (Ts=%g, Tt=%g)", Ts, Tt)
	}
	start := time.Now()
	var gb *galsBound
	probeConfigs := 0
	if !opts.DisableBounds {
		var err error
		gb, probeConfigs, err = galsBounds(p, Ts, Tt, opts, sc)
		if err != nil {
			return nil, err
		}
	}
	// Content-determined pop order among equal keys; see bounds.go.
	sc.Q.Tie, sc.QStar.Tie = candidateTieLess, candidateTieLess
	sc.SetPackedTie(!opts.DisablePackedTie)

	g, m := p.Grid, p.Model
	tc := p.tech()
	reg, fifo := tc.Register, tc.FIFO
	numNodes := g.NumNodes()

	// T(z): the clock period constraining the candidate's current segment.
	T := func(z uint8) float64 {
		if z == 1 {
			return Ts
		}
		return Tt
	}

	q := &sc.Q         // current wave, keyed by d
	qstar := &sc.QStar // future waves, keyed by l

	// Separate pruning stores per z: candidates with opposing z values are
	// never compared (Section IV-B, point 2).
	stores := [2]*candidate.Store{
		sc.PrepStore(0, numNodes, false),
		sc.PrepStore(1, numNodes, false),
	}
	regDone := [2]*nodeFlags{ // A_0(v), A_1(v)
		sc.prepFlags(0, numNodes),
		sc.prepFlags(1, numNodes),
	}
	fifoDone := sc.prepFlags(2, numNodes) // F(v)

	res := &Result{}
	res.Stats.ProbeConfigs = probeConfigs
	// Bound pruning happens at admitQ only — after Q*'s equal-latency
	// wavefront extraction, never before it — so pruning cannot regroup the
	// eps-bucketed wavefronts and perturb cross-wave dominance epochs.
	//
	// The push is split in two so expansion sites can run the bound checks
	// on scalars *before* paying Arena.New's 64-byte candidate copy: admitQ
	// decides viability from (node, z, c, d) and the current wavefront's
	// spans, enterQ dominance-checks and queues an already-allocated
	// candidate. Stats and faultpoint ordering are exactly the old single
	// pushQ's.
	admitQ := func(node int32, z uint8, c, d float64) bool {
		faultpoint.Must("core.wave_push")
		if win != nil && !win.Has(int(node)) {
			res.Stats.BoundPruned++
			return false
		}
		if gb != nil && gb.prune(node, z, c, d) {
			res.Stats.BoundPruned++
			return false
		}
		return true
	}
	enterQ := func(c *candidate.Candidate) {
		if !opts.DisablePruning {
			if !stores[c.Z].Insert(c) {
				res.Stats.Pruned++
				return
			}
		}
		q.Push(c.D, c)
		res.Stats.Pushed++
		if n := q.Len() + qstar.Len(); n > res.Stats.MaxQSize {
			res.Stats.MaxQSize = n
		}
	}
	pushQstar := func(c *candidate.Candidate) {
		qstar.Push(c.L, c)
		res.Stats.Pushed++
		if n := q.Len() + qstar.Len(); n > res.Stats.MaxQSize {
			res.Stats.MaxQSize = n
		}
	}

	init := sc.Arena.New(p.initialCandidate()) // (C(r), Setup(r), m', t, z=0, l=0)
	if admitQ(init.Node, init.Z, init.C, init.D) {
		enterQ(init)
	}
	if opts.Trace != nil {
		opts.Trace.WaveStart(0, 0)
	}
	res.Stats.Waves = 1

	for q.Len() > 0 || qstar.Len() > 0 {
		if q.Len() == 0 {
			// Step 2: Q = ExtractAllMin(Q*) — the next equal-latency
			// wavefront; a fresh pruning epoch for both domains.
			sc.Buf = sc.Buf[:0]
			var l float64
			sc.Buf, l = qstar.ExtractAllMin(sc.Buf, latencyEps)
			stores[0].NextEpoch()
			stores[1].NextEpoch()
			if gb != nil {
				gb.setWave(l)
			}
			res.Stats.Waves++
			if opts.Trace != nil {
				opts.Trace.WaveStart(res.Stats.Waves-1, l)
			}
			for _, c := range sc.Buf {
				if admitQ(c.Node, c.Z, c.C, c.D) {
					enterQ(c)
				}
			}
			continue
		}

		_, c, _ := q.Pop()
		if c.Dead {
			continue
		}
		res.Stats.Configs++
		if err := opts.CheckAbort(res.Stats.Configs); err != nil {
			return nil, err
		}
		if opts.Trace != nil {
			opts.Trace.Visit(res.Stats.Waves-1, int(c.Node))
		}
		u := int(c.Node)

		// Step 4: a solution must contain the MCFIFO (z=1) and close the
		// final source-side segment within Ts.
		if u == p.Source && c.Z == 1 {
			if d2 := m.DriveInto(reg, c.C, c.D); d2 <= Ts {
				res.Latency = c.L + Ts
				res.SourceDelay = d2
				res.Stats.Elapsed = time.Since(start)
				if win == nil { // the probe reads only the latency
					p.finish(c, res)
				}
				return res, nil
			}
		}

		// Step 5: extend across each live edge under the current domain's
		// period. The segment period and the edge step depend only on the
		// popped candidate, so both are hoisted out of the neighbor loop.
		tz := T(c.Z)
		ec, ed := m.AddEdge(c.C, c.D)
		if ed <= tz {
			g.ForNeighbors(u, func(v int) {
				if !admitQ(int32(v), c.Z, ec, ed) {
					return
				}
				enterQ(sc.Arena.New(candidate.Candidate{
					C: ec, D: ed, L: c.L, Node: int32(v),
					Gate: candidate.GateNone, Z: c.Z, Regs: c.Regs, Parent: c,
				}))
			})
		}

		// The endpoints are excluded from insertion: m(s) and m(t) are
		// fixed to the port registers.
		if !g.Insertable(u) || c.Gate != candidate.GateNone ||
			u == p.Source || u == p.Sink {
			continue
		}

		// Step 7: insert each library buffer.
		for bi := range tc.Buffers {
			b := tc.Buffers[bi]
			c2, d2 := m.AddGate(b, c.C, c.D)
			if d2 > tz {
				continue
			}
			if !admitQ(c.Node, c.Z, c2, d2) {
				continue
			}
			enterQ(sc.Arena.New(candidate.Candidate{
				C: c2, D: d2, L: c.L, Node: c.Node,
				Gate: candidate.Gate(bi), Z: c.Z, Regs: c.Regs, Parent: c,
			}))
		}

		if !g.RegisterInsertable(u) {
			continue
		}

		// Step 8: insert a register (relay station); stays in domain z,
		// latency grows by that domain's period.
		if !regDone[c.Z].Has(u) && m.DriveInto(reg, c.C, c.D) <= tz {
			regDone[c.Z].Set(u)
			pushQstar(sc.Arena.New(candidate.Candidate{
				C: reg.C, D: reg.Setup, L: c.L + tz, Node: c.Node,
				Gate: candidate.GateRegister, Z: c.Z, Regs: c.Regs + 1, Parent: c,
			}))
		}

		// Step 9: insert the MCFIFO — only once on a path (z flips 0→1) and
		// at most one candidate per node ever carries it (F(v)).
		if c.Z == 0 && !fifoDone.Has(u) && m.DriveInto(fifo, c.C, c.D) <= T(0) {
			fifoDone.Set(u)
			pushQstar(sc.Arena.New(candidate.Candidate{
				C: fifo.C, D: fifo.Setup, L: c.L + Tt, Node: c.Node,
				Gate: candidate.GateFIFO, Z: 1, Regs: c.Regs + 1, Parent: c,
			}))
		}
	}
	res.Stats.Elapsed = time.Since(start)
	return res, ErrNoPath // res carries the effort a probe reports
}
