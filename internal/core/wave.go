package core

import (
	"fmt"
	"math"
	"time"

	"clockroute/internal/candidate"
	"clockroute/internal/faultpoint"
	"clockroute/internal/telemetry"
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
	// wave, swapped into Q when the current wave drains (RBP, latches).
	twoQueue queueKind = iota
	// latencyHeap is Fig. 12's Q*: a heap keyed by accumulated latency l,
	// drained one eps-bucketed wavefront at a time.
	latencyHeap
	// oneWave has no future queue: FastPath's single wave, which closes
	// no segment into a register.
	oneWave
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
//
// FastPath is the one-wave scheme: its domain has no period, and a source
// close only updates the incumbent (the least close delay) until Q's least
// key reaches it. The latch router's fixed-k search is a register-count
// scheme whose candidates carry a deadline (latch.go).
type scheme struct {
	dom   [2]domain
	nd    int // domains in use: 1 (RBP, FastPath, latches) or 2 (GALS)
	queue queueKind
	latch *latchScheme // the latch router's launch edge, slots and bound; nil otherwise
}

// maxSlack reports whether opts run s in RBP's max-slack mode.
func (s *scheme) maxSlack(opts Options) bool {
	return opts.MaximizeSlack && s.queue == twoQueue && s.latch == nil
}

// rbpScheme is RBP's single domain of period T: segments close into a
// register.
func rbpScheme(p *Problem, T float64) *scheme {
	k, r := closing(p.tech(), false)
	return &scheme{dom: [2]domain{{T, k, r}}, nd: 1, queue: twoQueue}
}

// galsScheme is GALS's pair of domains: the sink's at Tt, whose segments
// close into a relay register or the FIFO, then the source's at Ts.
func galsScheme(p *Problem, Ts, Tt float64) *scheme {
	tc := p.tech()
	kt, rt := closing(tc, true)
	ks, rs := closing(tc, false)
	return &scheme{dom: [2]domain{{Tt, kt, rt}, {Ts, ks, rs}}, nd: 2, queue: latencyHeap}
}

// fastPathScheme is FastPath's single wave: one domain of infinite
// period, so no look-ahead or close test ever fails.
func fastPathScheme() *scheme {
	return &scheme{dom: [2]domain{{T: math.Inf(1)}}, nd: 1, queue: oneWave}
}

// FastPath finds the minimum Elmore-delay buffered path from the problem's
// source to its sink, exploring all routing and buffer-insertion options
// simultaneously (Zhou et al., Fig. 1 of the paper). The source and sink
// are modeled as registers (g_s = g_t = r) so results are directly
// comparable with RBP: the reported Latency is the full source-to-sink
// delay including the driver delay and the sink setup.
//
// Completed solutions are tracked as an incumbent (the least source close
// seen so far), not re-queued as marker candidates: the search ends when
// Q's least key can no longer strictly beat the incumbent — every
// completion from a queued candidate adds a strictly positive close on top
// of its key. Value-identical markers from different parents would bypass
// the Pareto store and make pop order shape-dependent; the incumbent keeps
// pop order a pure function of live store-guarded candidates, which the
// A*-equivalence argument requires.
func FastPath(p *Problem, opts Options) (res *Result, err error) {
	sc := getScratch()
	defer containSearchPanic(sc, &res, &err)
	return search(p, fastPathScheme(), opts, sc, nil, nil)
}

// RBP finds a feasible buffer-register path with the minimum cycle latency
// T×(p+1) for a single-clock domain with period T (Fig. 5 of the paper).
//
// Candidates propagate in waves: wave p holds every partial solution with p
// inserted registers, and dominance pruning only compares candidates inside
// the same wave (comparing across register counts is unsound, Fig. 4). This
// is the published two-queue formulation: Q holds the current wave ordered
// by delay, Q* accumulates the next wave, and Q = Q*, Q* = ∅ on exhaustion.
func RBP(p *Problem, T float64, opts Options) (res *Result, err error) {
	if T <= 0 {
		return nil, fmt.Errorf("core: non-positive clock period %g", T)
	}
	sc := getScratch()
	defer containSearchPanic(sc, &res, &err)
	return search(p, rbpScheme(p, T), opts, sc, nil, nil)
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
	sc := getScratch()
	defer containSearchPanic(sc, &res, &err)
	return search(p, galsScheme(p, Ts, Tt), opts, sc, nil, nil)
}

// engine is the state of one wavefront search: the pruning stores, the
// single-shot insertion marks, the current wave's index and its bound
// spans. All working memory, the queues included, is borrowed from a
// Scratch, so a pooled run allocates candidates from the arena instead of
// the heap.
type engine struct {
	p        *Problem
	s        *scheme
	opts     Options
	sc       *Scratch
	res      *Result
	maxSlack bool // RBP's max-slack mode
	drain    bool // an arrival does not end the search: max-slack and FastPath

	// win non-nil = this run is the one-path incumbent probe; bd non-nil =
	// the run prunes candidates that cannot finish within the incumbent.
	win *nodeFlags
	bd  *spanBound

	stores   [2]*candidate.Store // same-wave dominance per domain
	seeds    *candidate.Store    // tri-store seed dedup (max slack, latches)
	regDone  [2]*nodeFlags       // A_z(v)
	fifoDone *nodeFlags          // F(v)

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
// sc. res, when not nil, is the result to fill: its Stats carry on, as
// the latch router's deepening needs for its effort and abort budget. A
// failed search returns its result with ErrNoPath, so a probe can count
// its effort.
func search(p *Problem, s *scheme, opts Options, sc *Scratch, win *nodeFlags, res *Result) (*Result, error) {
	start := time.Now()
	if res == nil {
		res = &Result{}
	}
	e := &engine{p: p, s: s, opts: opts, sc: sc, res: res, win: win,
		maxSlack: s.maxSlack(opts)}
	e.drain = e.maxSlack || s.queue == oneWave
	if !opts.DisableBounds {
		var err error
		if e.bd, e.res.Stats.ProbeConfigs, err = s.bound(p, opts, sc); err != nil {
			return nil, err
		}
	}
	// Content-determined pop order among equal keys (bounds.go), decided
	// mostly by packed prefixes of it (tiekey.go).
	sc.Q.Tie, sc.QStar.Tie = candidateTieLess, candidateTieLess
	sc.Q.TieKey, sc.QStar.TieKey = tieKeyNodeC, tieKeyNodeD
	n := p.Grid.NumNodes()
	// Max-slack stores are slack-aware: a worse-delay candidate may
	// survive for its better sink slack; latch stores keep a later
	// deadline the same way.
	tri := e.maxSlack || s.latch != nil
	for z := 0; z < s.nd; z++ {
		// Candidates of different domains are never compared (Section
		// IV-B, point 2).
		e.stores[z] = sc.prepStore(z, n, tri)
		e.regDone[z] = sc.prepFlags(z, n)
	}
	if s.nd == 2 {
		e.fifoDone = sc.prepFlags(2, n)
	}
	if tri {
		e.seeds = sc.prepStore(1, n, true)
	}

	e.openWave()
	init := p.initialCandidate() // (C(r), Setup(r), m', t), z = 0, l = 0
	st := e.stores[0]
	if s.latch != nil {
		// The sink's setup is its deadline, and its candidate is wave 0's
		// seed: latch seeds are store-checked apart from their wave.
		init.D, init.Slack, st = 0, -init.D, e.seeds
	}
	if e.admit(init.Node, 0, init.C, init.D, init.Slack, &e.cur) {
		e.enter(st, &init)
	}

	// In max-slack mode the winning wave is drained completely and the
	// best-slack arrival wins; FastPath keeps the least close delay until
	// Q's least key reaches it; otherwise the first arrival is returned.
	var best *arrival
	q := &sc.Q // the current wave, keyed by delay
	for {
		if q.Len() == 0 {
			if best != nil || !e.advance() {
				break
			}
			continue
		}
		if best != nil && s.queue == oneWave {
			if key, _, _ := q.Peek(); key >= best.srcDelay {
				break
			}
		}
		_, c, _ := q.Pop()
		e.queued--
		if c.Dead {
			continue
		}
		arr, err := e.expand(c)
		if err != nil {
			return nil, err
		}
		switch {
		case arr == nil:
		case !e.drain:
			return e.close(arr, start), nil
		case s.queue == oneWave:
			if best == nil || arr.srcDelay < best.srcDelay {
				best = arr
			}
		case best == nil || arr.slack > best.slack:
			best = arr
		}
	}
	if best != nil {
		return e.close(best, start), nil
	}
	e.res.Stats.Killed += e.killed()
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
	case oneWave:
		return false
	case twoQueue:
		// Infeasibility cutoff. A feasible minimum-register solution needs
		// at most NumNodes waves (the single-shot A(v) marking gives each
		// wave a distinct register node, and max-slack mode agrees with
		// plain mode on feasibility and minimum wave, so only max-slack
		// mode can reach the cutoff). In max-slack mode, however, the
		// per-wave store epochs re-admit identical register seeds every
		// wave, so an infeasible cyclic instance would otherwise reproduce
		// wave N as wave N+1 forever. The latch router's waves end at its
		// last half-period slot.
		if e.maxSlack && e.wave >= e.p.Grid.NumNodes() {
			return false
		}
		if len(sc.Buf) == 0 {
			return false
		}
		for _, c := range sc.Buf { // Q = Q*, Q* = ∅
			sc.Q.Push(c.D, c)
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
			if e.admit(c.Node, c.Z, c.C, c.D, c.Slack, &e.cur) {
				e.enter(e.stores[c.Z], c)
			}
		}
	}
	return true
}

// openWave starts the current wave: it counts the wave, reports it to
// the tracer and, under Route, as a wave_start event, and sets the bound
// state for it and, for register-count waves, whose seeds are
// bound-tested when emitted, for the next one. Both see an RBP wave at
// the latency T×(wave+1) of a solution found in it, a latch wave at k·T,
// FastPath's one wave at +Inf and a GALS wavefront at its accumulated l.
func (e *engine) openWave() {
	e.res.Stats.Waves++
	T, lat := e.s.dom[0].T, e.l
	switch {
	case e.s.latch != nil:
		lat = -e.s.latch.launch
	case e.s.queue != latencyHeap:
		lat = T * float64(e.wave+1)
	}
	if e.opts.Trace != nil {
		e.opts.Trace.WaveStart(e.wave, lat)
	}
	if e.opts.waves != nil {
		e.opts.waves.Emit(telemetry.Event{
			Kind: telemetry.EventWaveStart, TimeNS: telemetry.Now(),
			Algo: e.opts.waveAlgo, Wave: e.wave, LatencyPS: lat,
		})
	}
	switch {
	case e.bd == nil:
	case e.bd.flat != nil:
		e.cur, e.next = *e.bd.flat, *e.bd.flat
	case e.s.queue == latencyHeap:
		e.cur = e.bd.spans(e.l)
	default:
		e.cur, e.next = e.bd.spans(T*float64(e.wave)), e.bd.spans(lat)
	}
}

// admit runs the bound tests on a candidate's scalars, before it is even
// built: the probe window, and under the bound state w of the candidate's
// wave the delay-aware bound and, in a keyed wave, the key or deadline
// test.
func (e *engine) admit(v int32, z uint8, c, d, slack float64, w *waveBound) bool {
	faultpoint.Must("core.wave_push")
	if (e.win != nil && !e.win.Has(int(v))) || (e.bd != nil && e.bd.prune(v, z, c, d, w.span[z])) ||
		(w.keyed[z] && e.bd.keyPrune(v, c, d, slack)) {
		e.res.Stats.BoundPruned++
		return false
	}
	return true
}

// enter dominance-checks an admitted candidate against st (its domain's
// store, or the latch router's seed store for the sink's candidate) and
// queues its arena copy in the current wave.
func (e *engine) enter(st *candidate.Store, c *candidate.Candidate) {
	if p := e.keep(st, c); p != nil {
		e.sc.Q.Push(p.D, p)
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

// seed queues the candidate (cIn, d) that opens a new segment in domain
// z at c's node behind gate — a register, the FIFO or a latch — for a
// later wave; its latency grows by the period of the segment gate closes.
func (e *engine) seed(c *candidate.Candidate, cIn, d float64, gate candidate.Gate, z uint8, slack float64) {
	if e.s.queue != latencyHeap && !e.admit(c.Node, z, cIn, d, slack, &e.next) {
		return
	}
	s := e.keep(e.seeds, &candidate.Candidate{
		C: cIn, D: d, Slack: slack, L: c.L + e.s.dom[c.Z].T, Node: c.Node,
		Gate: gate, Z: z, Regs: c.Regs + 1, Parent: c,
	})
	if s == nil {
		return
	}
	switch e.s.queue {
	case twoQueue:
		e.sc.Buf = append(e.sc.Buf, s)
	case latencyHeap:
		e.sc.QStar.Push(s.L, s)
	}
	e.pushed()
}

// expand pops one candidate (Fig. 5 steps 4-8, Fig. 12 steps 4-9): checks
// the source close, returning the arrival when the path closes feasibly,
// and generates the edge, buffer, register (or latch) and FIFO
// successors. A non-nil error (wrapping ErrAborted) stops the search.
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
	// the search; wave ordering guarantees minimal latency. A latch
	// path's source register, launching at −k·T, must meet the deadline.
	var arr *arrival
	ls := e.s.latch
	if u == p.Source && int(z) == e.s.nd-1 {
		if d2 := m.DriveInto(reg, c.C, c.D); d2 <= dom.T && ls.meets(d2, c.Slack) {
			slack := c.Slack + (dom.T - d2)
			if c.Regs == 0 {
				// Single segment: source and sink slacks coincide.
				slack = 2 * (dom.T - d2)
			}
			arr = &arrival{final: c, srcDelay: d2, slack: slack}
			if !e.drain {
				return arr, nil
			}
		}
	}

	// Step 5: extend across each live edge. The feasibility look-ahead
	// d' ≤ T − K − R·c' discards expansions that no element of the domain
	// could ever close within its period; a latch candidate past its
	// deadline can never recover (the deadline only shrinks).
	ec, ed := m.AddEdge(c.C, c.D)
	limit := dom.T
	if !e.opts.DisableLookahead {
		limit = dom.T - dom.K - dom.R*ec
	}
	if ed <= limit && ls.meets(ed, c.Slack) {
		g.ForNeighbors(u, func(v int) {
			if e.admit(int32(v), z, ec, ed, c.Slack, &e.cur) {
				e.enter(e.stores[z], &candidate.Candidate{
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
		if d2 <= limit && ls.meets(d2, c.Slack) && e.admit(c.Node, z, c2, d2, c.Slack, &e.cur) {
			e.enter(e.stores[z], &candidate.Candidate{
				C: c2, D: d2, Slack: c.Slack, L: c.L, Node: c.Node,
				Gate: candidate.Gate(bi), Z: z, Regs: c.Regs, Parent: c,
			})
		}
	}
	if !g.RegisterInsertable(u) || e.s.queue == oneWave {
		return arr, nil
	}
	// Step 8 of the latch router: a latch in the next half-period slot
	// opens the next wave.
	if ls != nil {
		if deadline, ok := ls.slot(c); ok {
			e.seed(c, ls.el.C, 0, candidate.GateLatch, 0, deadline)
		}
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
			e.seed(c, reg.C, reg.Setup, candidate.GateRegister, z, slack)
		}
	}

	// Step 9: insert the MCFIFO, moving z to the next domain — only once
	// on a path, and at most one candidate per node ever carries it (F(v)).
	if int(z)+1 < e.s.nd && !e.fifoDone.Has(u) && m.DriveInto(tc.FIFO, c.C, c.D) <= dom.T {
		e.fifoDone.Set(u)
		e.seed(c, tc.FIFO.C, tc.FIFO.Setup, candidate.GateFIFO, z+1, c.Slack)
	}
	return arr, nil
}

// close fills the result of a search ending at arrival a. The probe reads
// only the latency and the arrival key, so windowed runs skip path
// reconstruction. A latch search's latency is its deepening's k·T.
func (e *engine) close(a *arrival, start time.Time) *Result {
	res := e.res
	switch e.s.queue {
	case latencyHeap:
		res.Latency = a.final.L + e.s.dom[e.s.nd-1].T
	case oneWave:
		res.Latency = a.srcDelay
	default:
		res.Latency = e.s.dom[0].T * float64(e.wave+1)
		res.SlackPS = a.slack
	}
	res.SourceDelay = a.srcDelay
	res.Stats.Killed += e.killed()
	res.Stats.Elapsed = time.Since(start)
	if e.win == nil {
		e.p.finish(a.final, res)
	} else {
		res.arrivalKey = a.final.D
	}
	return res
}
