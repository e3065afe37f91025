package core

import (
	"fmt"
	"math"
	"time"

	"clockroute/internal/candidate"
	"clockroute/internal/faultpoint"
	"clockroute/internal/pqueue"
	"clockroute/internal/tech"
)

// latencyEps groups Q* entries whose accumulated latencies differ only by
// floating-point noise into the same wavefront (latencies are sums of Ts
// and Tt multiples, so genuine differences are at least fractions of a ps).
const latencyEps = 1e-6

// domain is one clock domain of a scheme: its period T, and the least
// intrinsic delay K and drive resistance R among the elements that can
// close one of its segments. (K, R) set both the feasibility look-ahead
// and the domain's segment reach (bounds.go).
type domain struct{ T, K, R float64 }

// queueKind selects a scheme's future-wave queue.
type queueKind uint8

const (
	// twoQueue is Fig. 5's register-count Q*: one list holding the next
	// wave, swapped into Q when the current wave drains.
	twoQueue queueKind = iota
	// arrayQueues keeps one heap per register count, each candidate queued
	// in its own wave's heap (the variant at the end of Section III).
	arrayQueues
	// latencyHeap is Fig. 12's Q*: a heap keyed by accumulated latency l,
	// drained one eps-bucketed wavefront at a time.
	latencyHeap
)

// scheme is the clocking scheme a search runs under. Candidates start in
// domain 0 at the sink and a solution closes at the source in the last
// domain. A register stays in its domain; with two domains the MCFIFO
// closes a domain-0 segment and opens domain 1, once per path.
//
// Register-count queues (RBP) price a solution found in wave p at
// T×(p+1) and track segment slacks. The latency heap (GALS) prices it at
// its accumulated l plus the accepting domain's period. The queue also
// fixes when a register or FIFO seed is admitted, the two measured
// differences between Fig. 5 and Fig. 12 that the engine keeps: RBP
// bound-tests a seed against the next wave as it is emitted and moves it
// into Q without a store check, while GALS bound-tests it against its
// extracted wavefront and then runs it through the domain's store.
// Swapping either changes RBP's effort counters (DESIGN.md).
type scheme struct {
	dom   [2]domain
	nd    int // domains in use: 1 (RBP) or 2 (GALS)
	queue queueKind
}

// maxSlack reports whether opts run s in RBP's max-slack mode.
func (s *scheme) maxSlack(opts Options) bool { return opts.MaximizeSlack && s.queue != latencyHeap }

// rbpScheme is RBP's single domain of period T: segments close into a
// register.
func rbpScheme(p *Problem, T float64, q queueKind) *scheme {
	tc := p.tech()
	return &scheme{dom: [2]domain{{T, tc.Register.K, tc.MinBufferR()}}, nd: 1, queue: q}
}

// galsScheme is GALS's pair of domains: the sink's at Tt, whose segments
// close into a relay register or the FIFO, then the source's at Ts.
func galsScheme(p *Problem, Ts, Tt float64) *scheme {
	tc := p.tech()
	reg, fifo, minR := tc.Register, tc.FIFO, tc.MinBufferR()
	return &scheme{dom: [2]domain{
		{Tt, math.Min(reg.K, fifo.K), math.Min(minR, fifo.R)},
		{Ts, reg.K, minR},
	}, nd: 2, queue: latencyHeap}
}

// RBP finds a feasible buffer-register path with the minimum cycle latency
// T×(p+1) for a single-clock domain with period T (Fig. 5 of the paper).
//
// Candidates propagate in waves: wave p holds every partial solution with p
// inserted registers, and dominance pruning only compares candidates inside
// the same wave (comparing across register counts is unsound, Fig. 4). This
// is the published two-queue formulation: Q holds the current wave ordered
// by delay, Q* accumulates the next wave, and Q = Q*, Q* = ∅ on exhaustion.
func RBP(p *Problem, T float64, opts Options) (*Result, error) {
	return rbpQueues(p, T, opts, twoQueue)
}

// RBPArrayQueues is the alternative implementation discussed at the end of
// Section III: an array of priority queues indexed by register count, each
// candidate inserted into the queue of its own wave. It returns exactly
// RBP's Result, Stats included; the array trades memory (all wave heaps
// live simultaneously) for not having to swap queues.
func RBPArrayQueues(p *Problem, T float64, opts Options) (*Result, error) {
	return rbpQueues(p, T, opts, arrayQueues)
}

func rbpQueues(p *Problem, T float64, opts Options, q queueKind) (res *Result, err error) {
	if T <= 0 {
		return nil, fmt.Errorf("core: non-positive clock period %g", T)
	}
	sc := GetScratch()
	defer containSearchPanic(sc, &res, &err)
	return search(p, rbpScheme(p, T, q), opts, sc, nil)
}

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
	if Ts <= 0 || Tt <= 0 {
		return nil, fmt.Errorf("core: non-positive clock period (Ts=%g, Tt=%g)", Ts, Tt)
	}
	sc := GetScratch()
	defer containSearchPanic(sc, &res, &err)
	return search(p, galsScheme(p, Ts, Tt), opts, sc, nil)
}

// engine is the state of one wavefront search: the pruning stores, the
// single-shot insertion marks, the current wave and its bound spans. All
// working memory is borrowed from a Scratch, so a pooled run allocates
// candidates from the arena instead of the heap.
type engine struct {
	p        *Problem
	s        *scheme
	opts     Options
	sc       *Scratch
	res      *Result
	maxSlack bool // RBP's max-slack mode

	// win non-nil = this run is the one-path incumbent probe; bd non-nil =
	// the run prunes candidates that cannot finish within the incumbent.
	win *nodeFlags
	bd  *spanBound

	q        *pqueue.Heap[*candidate.Candidate] // the current wave, keyed by delay
	stores   [2]*candidate.Store                // same-wave dominance per domain
	seeds    *candidate.Store                   // max-slack register-seed dedup
	regDone  [2]*nodeFlags                      // A_z(v)
	fifoDone *nodeFlags                         // F(v)

	wave      int       // index of the wave being drained
	l         float64   // its accumulated latency (latency heap only)
	cur, next waveBound // bound state of this wave and the next (bounds.go)
	queued    int       // candidates in Q and the future queue, dead included
}

// arrival is a feasible solution discovered at the source.
type arrival struct {
	final    *candidate.Candidate
	srcDelay float64
	slack    float64 // source slack + sink slack (register-count waves)
}

// search runs the wavefront DP under s on borrowed scratch memory;
// everything the result carries is copied out before the caller releases
// sc. A failed search returns its result with ErrNoPath, so a probe can
// count its effort.
func search(p *Problem, s *scheme, opts Options, sc *Scratch, win *nodeFlags) (*Result, error) {
	start := time.Now()
	e := &engine{p: p, s: s, opts: opts, sc: sc, res: &Result{}, win: win,
		maxSlack: s.maxSlack(opts)}
	if !opts.DisableBounds {
		var err error
		if e.bd, e.res.Stats.ProbeConfigs, err = s.bound(p, opts, sc); err != nil {
			return nil, err
		}
	}
	// Content-determined pop order among equal keys; see bounds.go.
	sc.Q.Tie, sc.QStar.Tie = candidateTieLess, candidateTieLess
	sc.SetPackedTie(!opts.DisablePackedTie)
	n := p.Grid.NumNodes()
	for z := 0; z < s.nd; z++ {
		// Candidates of different domains are never compared (Section
		// IV-B, point 2). Max-slack stores are slack-aware: a worse-delay
		// candidate may survive for its better sink slack.
		e.stores[z] = sc.PrepStore(z, n, e.maxSlack)
		e.regDone[z] = sc.prepFlags(z, n)
	}
	if s.nd == 2 {
		e.fifoDone = sc.prepFlags(2, n)
	}
	if e.maxSlack {
		e.seeds = sc.PrepStore(1, n, true)
	}
	e.q = &sc.Q
	if s.queue == arrayQueues {
		e.q = sc.Wave(0)
	}

	e.openWave()
	init := p.initialCandidate() // (C(r), Setup(r), m', t), z = 0, l = 0
	if e.admit(init.Node, 0, init.C, init.D, &e.cur) {
		e.enter(&init)
	}

	// In max-slack mode the winning wave is drained completely and the
	// best-slack arrival wins; otherwise the first arrival is returned.
	var best *arrival
	for {
		if e.q.Len() == 0 {
			if best != nil || !e.advance() {
				break
			}
			continue
		}
		_, c, _ := e.q.Pop()
		e.queued--
		if c.Dead {
			continue
		}
		arr, err := e.expand(c)
		if err != nil {
			return nil, err
		}
		if arr != nil {
			if !e.maxSlack {
				return e.close(arr, start), nil
			}
			if best == nil || arr.slack > best.slack {
				best = arr
			}
		}
	}
	if best != nil {
		return e.close(best, start), nil
	}
	e.res.Stats.Killed = e.killed()
	e.res.Stats.Elapsed = time.Since(start)
	return e.res, ErrNoPath
}

// killed sums the kills of the search's own stores: queued candidates a
// later arrival marked Dead, left in the queue to be skipped when popped.
func (e *engine) killed() int {
	n := 0
	for _, st := range e.stores[:e.s.nd] {
		_, _, k := st.Stats()
		n += k
	}
	if e.seeds != nil {
		_, _, k := e.seeds.Stats()
		n += k
	}
	return n
}

// advance opens the next wave once Q has drained (Step 2), reporting false
// when nothing is queued for one. Every wave starts a new pruning epoch.
func (e *engine) advance() bool {
	sc := e.sc
	switch e.s.queue {
	case twoQueue, arrayQueues:
		// Infeasibility cutoff. A feasible minimum-register solution needs
		// at most NumNodes waves (the single-shot A(v) marking gives each
		// wave a distinct register node, and max-slack mode agrees with
		// plain mode on feasibility and minimum wave). In max-slack mode,
		// however, the per-wave store epochs re-admit identical register
		// seeds every wave, so an infeasible cyclic instance would
		// otherwise reproduce wave N as wave N+1 forever.
		if e.wave >= e.p.Grid.NumNodes() {
			return false
		}
		if e.s.queue == arrayQueues {
			if next := sc.Wave(e.wave + 1); next.Len() > 0 {
				e.q = next
				break
			}
			return false
		}
		if len(sc.Buf) == 0 {
			return false
		}
		for _, c := range sc.Buf { // Q = Q*, Q* = ∅
			e.q.Push(c.D, c)
		}
		sc.Buf = sc.Buf[:0]
	case latencyHeap:
		if sc.QStar.Len() == 0 {
			return false
		}
		sc.Buf, e.l = sc.QStar.ExtractAllMin(sc.Buf[:0], latencyEps) // Q = ExtractAllMin(Q*)
		e.queued -= len(sc.Buf)
	}
	e.wave++
	for _, st := range e.stores[:e.s.nd] {
		st.NextEpoch()
	}
	if e.seeds != nil {
		e.seeds.NextEpoch()
	}
	e.openWave()
	if e.s.queue == latencyHeap {
		// An extracted seed enters Q as a copy: its Q* slot counted as one
		// push, and its kept copy in Q is another.
		for _, c := range sc.Buf {
			if e.admit(c.Node, c.Z, c.C, c.D, &e.cur) {
				e.enter(c)
			}
		}
	}
	return true
}

// openWave starts the current wave: it counts and traces the wave and
// sets the bound state for it and, for register-count waves, whose
// seeds are bound-tested when emitted, for the next one. The tracer sees
// an RBP wave at the latency T×(wave+1) of a solution found in it and a
// GALS wavefront at its accumulated l.
func (e *engine) openWave() {
	e.res.Stats.Waves++
	T, lat := e.s.dom[0].T, e.l
	if e.s.queue != latencyHeap {
		lat = T * float64(e.wave+1)
	}
	if e.opts.Trace != nil {
		e.opts.Trace.WaveStart(e.wave, lat)
	}
	switch {
	case e.bd == nil:
	case e.s.queue == latencyHeap:
		e.cur = e.bd.spans(e.l)
	default:
		e.cur, e.next = e.bd.spans(T*float64(e.wave)), e.bd.spans(lat)
	}
}

// admit runs the bound tests on a candidate's scalars, before it is even
// built: the probe window, and under the bound state w of the candidate's
// wave the delay-aware bound and, in the probe's wave, the key test.
func (e *engine) admit(v int32, z uint8, c, d float64, w *waveBound) bool {
	faultpoint.Must("core.wave_push")
	if (e.win != nil && !e.win.Has(int(v))) || (e.bd != nil && e.bd.prune(v, z, c, d, w.span[z])) ||
		(w.keyed[z] && e.bd.keyPrune(v, d)) {
		e.res.Stats.BoundPruned++
		return false
	}
	return true
}

// enter dominance-checks an admitted candidate against its domain's store
// and queues its arena copy in the current wave.
func (e *engine) enter(c *candidate.Candidate) {
	if p := e.keep(e.stores[c.Z], c); p != nil {
		e.q.Push(p.D, p)
		e.pushed()
	}
}

// keep returns the arena copy of an admitted candidate, or nil when st
// (nil for none) finds it dominated, counted as pruned. The dominance test
// reads c's value, so a dominated candidate never takes a slot.
func (e *engine) keep(st *candidate.Store, c *candidate.Candidate) *candidate.Candidate {
	if st == nil || e.opts.DisablePruning {
		return e.sc.Arena.New(*c)
	}
	p := st.Insert(&e.sc.Arena, c)
	if p == nil {
		e.res.Stats.Pruned++
	}
	return p
}

// pushed counts a queued candidate and tracks the peak queue size.
func (e *engine) pushed() {
	e.res.Stats.Pushed++
	if e.queued++; e.queued > e.res.Stats.MaxQSize {
		e.res.Stats.MaxQSize = e.queued
	}
}

// seed queues the candidate that opens a new segment in domain z at c's
// node behind el — a register or the FIFO — for a later wave; its latency
// grows by the period of the segment el closes.
func (e *engine) seed(c *candidate.Candidate, el tech.Element, gate candidate.Gate, z uint8, slack float64) {
	if e.s.queue != latencyHeap && !e.admit(c.Node, z, el.C, el.Setup, &e.next) {
		return
	}
	s := e.keep(e.seeds, &candidate.Candidate{
		C: el.C, D: el.Setup, Slack: slack, L: c.L + e.s.dom[c.Z].T, Node: c.Node,
		Gate: gate, Z: z, Regs: c.Regs + 1, Parent: c,
	})
	if s == nil {
		return
	}
	switch e.s.queue {
	case twoQueue:
		e.sc.Buf = append(e.sc.Buf, s)
	case arrayQueues:
		e.sc.Wave(e.wave+1).Push(s.D, s)
	case latencyHeap:
		e.sc.QStar.Push(s.L, s)
	}
	e.pushed()
}

// expand pops one candidate (Fig. 5 steps 4-8, Fig. 12 steps 4-9): checks
// the source close, returning the arrival when the path closes feasibly,
// and generates the edge, buffer, register and FIFO successors. A non-nil
// error (wrapping ErrAborted) stops the search.
func (e *engine) expand(c *candidate.Candidate) (*arrival, error) {
	p, g, m := e.p, e.p.Grid, e.p.Model
	tc := p.tech()
	reg := tc.Register
	u := int(c.Node)

	e.res.Stats.Configs++
	if err := e.opts.CheckAbort(e.res.Stats.Configs); err != nil {
		return nil, err
	}
	if e.opts.Trace != nil {
		e.opts.Trace.Visit(e.wave, u)
	}
	z := c.Z
	dom := e.s.dom[z]

	// Step 4: a feasible close at the source in the accepting domain ends
	// the search; wave ordering guarantees minimal latency.
	var arr *arrival
	if u == p.Source && int(z) == e.s.nd-1 {
		if d2 := m.DriveInto(reg, c.C, c.D); d2 <= dom.T {
			slack := c.Slack + (dom.T - d2)
			if c.Regs == 0 {
				// Single segment: source and sink slacks coincide.
				slack = 2 * (dom.T - d2)
			}
			arr = &arrival{final: c, srcDelay: d2, slack: slack}
			if !e.maxSlack {
				return arr, nil
			}
		}
	}

	// Step 5: extend across each live edge. The feasibility look-ahead
	// d' ≤ T − K − R·c' discards expansions that no element of the domain
	// could ever close within its period.
	ec, ed := m.AddEdge(c.C, c.D)
	limit := dom.T
	if !e.opts.DisableLookahead {
		limit = dom.T - dom.K - dom.R*ec
	}
	if ed <= limit {
		g.ForNeighbors(u, func(v int) {
			if e.admit(int32(v), z, ec, ed, &e.cur) {
				e.enter(&candidate.Candidate{
					C: ec, D: ed, Slack: c.Slack, L: c.L, Node: int32(v),
					Gate: candidate.GateNone, Z: z, Regs: c.Regs, Parent: c,
				})
			}
		})
	}

	// The endpoints are excluded from insertion: m(s) and m(t) are fixed to
	// the port registers.
	if !g.Insertable(u) || c.Gate != candidate.GateNone ||
		u == p.Source || u == p.Sink {
		return arr, nil
	}

	// Step 7: insert each library buffer at u.
	limit = dom.T
	if !e.opts.DisableLookahead {
		limit = dom.T - dom.K
	}
	for bi := range tc.Buffers {
		c2, d2 := m.AddGate(tc.Buffers[bi], c.C, c.D)
		if d2 <= limit && e.admit(c.Node, z, c2, d2, &e.cur) {
			e.enter(&candidate.Candidate{
				C: c2, D: d2, Slack: c.Slack, L: c.L, Node: c.Node,
				Gate: candidate.Gate(bi), Z: z, Regs: c.Regs, Parent: c,
			})
		}
	}
	if !g.RegisterInsertable(u) {
		return arr, nil
	}

	// Step 8: insert a register (relay station), staying in domain z. The
	// first candidate to clock at u comes from the minimum wave, so A_z(u)
	// suppresses every later (never better) register insertion here —
	// except in max-slack mode, where distinct sink slacks make several
	// registered candidates per node worth keeping (deduplicated by the
	// seed tri-store instead).
	if !e.regDone[z].Has(u) || e.maxSlack {
		if d2 := m.DriveInto(reg, c.C, c.D); d2 <= dom.T {
			e.regDone[z].Set(u)
			slack := c.Slack
			if c.Regs == 0 && e.s.queue != latencyHeap {
				slack = dom.T - d2 // the sink-adjacent segment just closed
			}
			e.seed(c, reg, candidate.GateRegister, z, slack)
		}
	}

	// Step 9: insert the MCFIFO, moving z to the next domain — only once
	// on a path, and at most one candidate per node ever carries it (F(v)).
	if int(z)+1 < e.s.nd && !e.fifoDone.Has(u) && m.DriveInto(tc.FIFO, c.C, c.D) <= dom.T {
		e.fifoDone.Set(u)
		e.seed(c, tc.FIFO, candidate.GateFIFO, z+1, c.Slack)
	}
	return arr, nil
}

// close fills the result of a search ending at arrival a. The probe reads
// only the latency and the arrival key, so windowed runs skip path
// reconstruction.
func (e *engine) close(a *arrival, start time.Time) *Result {
	res := e.res
	if e.s.queue == latencyHeap {
		res.Latency = a.final.L + e.s.dom[e.s.nd-1].T
	} else {
		res.Latency = e.s.dom[0].T * float64(e.wave+1)
		res.SlackPS = a.slack
	}
	res.SourceDelay = a.srcDelay
	res.Stats.Killed = e.killed()
	res.Stats.Elapsed = time.Since(start)
	if e.win == nil {
		e.p.finish(a.final, res)
	} else {
		res.arrivalKey = a.final.D
	}
	return res
}
