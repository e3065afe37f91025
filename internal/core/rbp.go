package core

import (
	"fmt"
	"time"

	"clockroute/internal/candidate"
	"clockroute/internal/faultpoint"
)

// rbpEngine holds the state shared by both RBP implementations: the pruning
// store, the register marking A(v), and the candidate expansion rules of
// Fig. 5 (steps 4-8). All working memory is borrowed from a Scratch, so a
// pooled engine run allocates candidates from the arena instead of the
// heap.
type rbpEngine struct {
	p    *Problem
	T    float64
	opts Options
	minR float64
	sc   *Scratch
	// store prunes same-wave candidates; tri-keyed in max-slack mode.
	store *candidate.Store
	// regStore dedups next-wave register candidates per node in max-slack
	// mode, replacing the single-shot A(v) marking.
	regStore *candidate.Store
	regDone  *nodeFlags // A(v)
	res      *Result
	curWave  int // wave currently being drained
	// emit enqueues a candidate in the given wave with the given heap key.
	emit func(wave int, c *candidate.Candidate, key float64)

	// Admissible-bound state (bounds.go). win non-nil = this run is the
	// one-path incumbent probe; bd non-nil = the main run prunes candidates
	// that cannot close their segment in time to finish within the
	// incumbent's wave.
	win *nodeFlags
	bd  *rbpBound
}

func newRBPEngine(p *Problem, T float64, opts Options, res *Result, sc *Scratch) *rbpEngine {
	n := p.Grid.NumNodes()
	e := &rbpEngine{
		p: p, T: T, opts: opts,
		minR:    p.tech().MinBufferR(),
		sc:      sc,
		store:   sc.PrepStore(0, n, opts.MaximizeSlack),
		regDone: sc.prepFlags(0, n),
		res:     res,
	}
	if opts.MaximizeSlack {
		// Slack-aware 3-D pruning: a worse-delay candidate may survive for
		// its better sink slack (Section III extension). Register
		// insertions are likewise deduplicated by slack, not by A(v).
		e.regStore = sc.PrepStore(1, n, true)
	}
	return e
}

// arrival is a feasible solution discovered at the source.
type arrival struct {
	final    *candidate.Candidate
	srcDelay float64
	slack    float64 // source slack + sink slack
}

// tryEmit applies dominance pruning against st (nil = no pruning) and
// forwards to emit.
func (e *rbpEngine) tryEmit(wave int, c *candidate.Candidate, key float64, st *candidate.Store) {
	faultpoint.Must("core.wave_push")
	if e.win != nil && !e.win.Has(int(c.Node)) {
		e.res.Stats.BoundPruned++
		return
	}
	if e.bd != nil && e.bd.prune(wave, c) {
		e.res.Stats.BoundPruned++
		return
	}
	if st != nil && !e.opts.DisablePruning {
		if !st.Insert(c) {
			e.res.Stats.Pruned++
			return
		}
	}
	e.emit(wave, c, key)
	e.res.Stats.Pushed++
}

// nextEpoch starts a new pruning epoch on every store the engine owns.
func (e *rbpEngine) nextEpoch() {
	e.store.NextEpoch()
	if e.regStore != nil {
		e.regStore.NextEpoch()
	}
}

// expand pops one candidate: checks source arrival (returning it if the
// path closes feasibly) and generates the edge, buffer, and register
// successors. A non-nil error (wrapping ErrAborted) stops the search.
func (e *rbpEngine) expand(c *candidate.Candidate, wave int) (*arrival, error) {
	g, m := e.p.Grid, e.p.Model
	tc := e.p.tech()
	reg := tc.Register
	u := int(c.Node)

	e.res.Stats.Configs++
	if err := e.opts.CheckAbort(e.res.Stats.Configs); err != nil {
		return nil, err
	}
	if e.opts.Trace != nil {
		e.opts.Trace.Visit(wave, u)
	}

	// Step 4: feasible arrival at the source ends the search; wave ordering
	// guarantees minimal latency.
	var arr *arrival
	if u == e.p.Source {
		if d2 := m.DriveInto(reg, c.C, c.D); d2 <= e.T {
			slack := c.Slack + (e.T - d2)
			if c.Regs == 0 {
				// Single segment: source and sink slacks coincide.
				slack = 2 * (e.T - d2)
			}
			arr = &arrival{final: c, srcDelay: d2, slack: slack}
			if !e.opts.MaximizeSlack {
				return arr, nil
			}
		}
	}

	// Step 5: extend across each live edge. The feasibility look-ahead
	// d' ≤ T − K(r) − min(R)·c' discards expansions that no downstream gate
	// could ever close within the period.
	g.ForNeighbors(u, func(v int) {
		c2, d2 := m.AddEdge(c.C, c.D)
		limit := e.T
		if !e.opts.DisableLookahead {
			limit = e.T - reg.K - e.minR*c2
		}
		if d2 > limit {
			return
		}
		e.tryEmit(wave, e.sc.Arena.New(candidate.Candidate{
			C: c2, D: d2, Slack: c.Slack, Node: int32(v),
			Gate: candidate.GateNone, Regs: c.Regs, Parent: c,
		}), d2, e.store)
	})

	// The endpoints are excluded from insertion: m(s) and m(t) are fixed to
	// the port registers.
	if !g.Insertable(u) || c.Gate != candidate.GateNone ||
		u == e.p.Source || u == e.p.Sink {
		return arr, nil
	}

	// Step 7: insert each library buffer at u.
	for bi := range tc.Buffers {
		b := tc.Buffers[bi]
		c2, d2 := m.AddGate(b, c.C, c.D)
		limit := e.T
		if !e.opts.DisableLookahead {
			limit = e.T - reg.K
		}
		if d2 > limit {
			continue
		}
		e.tryEmit(wave, e.sc.Arena.New(candidate.Candidate{
			C: c2, D: d2, Slack: c.Slack, Node: c.Node,
			Gate: candidate.Gate(bi), Regs: c.Regs, Parent: c,
		}), d2, e.store)
	}

	// Step 8: insert a register, opening the next wave. The first candidate
	// to clock at u comes from the minimum wave, so A(u) suppresses every
	// later (never better) register insertion here — except in max-slack
	// mode, where distinct sink slacks make multiple registered candidates
	// per node worth keeping (deduplicated by the tri-store instead).
	if g.RegisterInsertable(u) && (!e.regDone.Has(u) || e.opts.MaximizeSlack) {
		if d2 := m.DriveInto(reg, c.C, c.D); d2 <= e.T {
			e.regDone.Set(u)
			slack := c.Slack
			if c.Regs == 0 {
				slack = e.T - d2 // the sink-adjacent segment just closed
			}
			e.tryEmit(wave+1, e.sc.Arena.New(candidate.Candidate{
				C: reg.C, D: reg.Setup, Slack: slack, Node: c.Node,
				Gate: candidate.GateRegister, Regs: c.Regs + 1, Parent: c,
			}), reg.Setup, e.regStore)
		}
	}
	return arr, nil
}

// close fills the result of a search ending at arrival a in wave. The
// probe reads only the wave, so windowed runs skip path reconstruction.
func (e *rbpEngine) close(a *arrival, wave int, start time.Time) *Result {
	e.res.Latency = e.T * float64(wave+1)
	e.res.Registers = wave
	e.res.SourceDelay = a.srcDelay
	e.res.SlackPS = a.slack
	e.res.Stats.Elapsed = time.Since(start)
	if e.win == nil {
		e.p.finish(a.final, e.res)
	}
	return e.res
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
	sc := GetScratch()
	defer containSearchPanic(sc, &res, &err)
	return rbp(p, T, opts, sc, nil)
}

// rbpBounds prepares the admissible-bound state for an RBP-family search:
// the BFS distance field, the per-period segment reach, a register-count
// incumbent from the two-queue kernel probed on one shortest path, and the
// segment's delay table. Only an abort propagates as err.
func rbpBounds(p *Problem, T float64, opts Options, sc *Scratch) (*rbpBound, int, error) {
	sh := opts.Share
	bd := sc.prepBoundsShared(p, sh)
	tc := p.tech()
	reach := bd.segmentReachShared(sh, p, p.Model, T, int(bd.maxSrc), false, tc.Register.K, tc.MinBufferR())
	inc, probeConfigs, err := sc.probe(p, opts, func(o Options, win *nodeFlags) (*Result, error) {
		return rbp(p, T, o, sc, win)
	})
	if err != nil {
		return nil, 0, err
	}
	maxWave := noIncumbent
	if inc != nil {
		maxWave = inc.Registers
	}
	return bd.newRBPBound(p.Model, T, reach, maxWave), probeConfigs, nil
}

func rbp(p *Problem, T float64, opts Options, sc *Scratch, win *nodeFlags) (*Result, error) {
	if T <= 0 {
		return nil, fmt.Errorf("core: non-positive clock period %g", T)
	}
	start := time.Now()
	res := &Result{}
	var bd *rbpBound
	if !opts.DisableBounds {
		var err error
		bd, res.Stats.ProbeConfigs, err = rbpBounds(p, T, opts, sc)
		if err != nil {
			return nil, err
		}
	}
	sc.Q.Tie = candidateTieLess // content-determined pop order; see bounds.go
	sc.SetPackedTie(!opts.DisablePackedTie)
	e := newRBPEngine(p, T, opts, res, sc)
	e.win, e.bd = win, bd

	q := &sc.Q       // current wave, keyed by delay
	qstar := &sc.Buf // next wave; all entries share key Setup(r)
	e.emit = func(wave int, c *candidate.Candidate, key float64) {
		if wave == e.curWave {
			q.Push(key, c)
		} else {
			*qstar = append(*qstar, c)
		}
		if n := q.Len() + len(*qstar); n > res.Stats.MaxQSize {
			res.Stats.MaxQSize = n
		}
	}

	init := sc.Arena.New(p.initialCandidate())
	e.curWave = 0
	e.tryEmit(0, init, init.D, e.store)

	// In max-slack mode the winning wave is drained completely and the
	// best-slack arrival wins; otherwise the first arrival is returned.
	var best *arrival
	for q.Len() > 0 || len(*qstar) > 0 {
		if q.Len() == 0 {
			if best != nil {
				break // the minimum-latency wave is fully explored
			}
			// Infeasibility cutoff. A feasible minimum-register solution
			// needs at most NumNodes waves (the single-shot A(v) marking
			// gives each wave a distinct register node, and max-slack mode
			// agrees with plain mode on feasibility and minimum wave). In
			// max-slack mode, however, the per-wave store epochs re-admit
			// identical register seeds every wave, so an infeasible cyclic
			// instance would otherwise reproduce wave N as wave N+1 forever.
			if e.curWave >= p.Grid.NumNodes() {
				break
			}
			// Step 2: Q = Q*, Q* = ∅; new wave, new pruning epoch.
			for _, c := range *qstar {
				q.Push(c.D, c)
			}
			*qstar = (*qstar)[:0]
			e.curWave++
			e.nextEpoch()
		}
		if res.Stats.Waves == e.curWave {
			res.Stats.Waves++
			if opts.Trace != nil {
				opts.Trace.WaveStart(e.curWave, T*float64(e.curWave+1))
			}
		}
		_, c, _ := q.Pop()
		if c.Dead {
			continue
		}
		arr, err := e.expand(c, e.curWave)
		if err != nil {
			return nil, err
		}
		if arr != nil {
			if !opts.MaximizeSlack {
				return e.close(arr, e.curWave, start), nil
			}
			if best == nil || arr.slack > best.slack {
				best = arr
			}
		}
	}
	if best != nil {
		return e.close(best, e.curWave, start), nil
	}
	return res, ErrNoPath // res carries the effort a probe reports
}

// RBPArrayQueues is the alternative implementation discussed at the end of
// Section III: an array of priority queues indexed by register count, each
// candidate inserted into the queue of its own wave. Results are identical
// to RBP; the array trades memory (all wave heaps live simultaneously) for
// not having to swap queues.
func RBPArrayQueues(p *Problem, T float64, opts Options) (res *Result, err error) {
	sc := GetScratch()
	defer containSearchPanic(sc, &res, &err)
	return rbpArrayQueues(p, T, opts, sc)
}

func rbpArrayQueues(p *Problem, T float64, opts Options, sc *Scratch) (*Result, error) {
	if T <= 0 {
		return nil, fmt.Errorf("core: non-positive clock period %g", T)
	}
	start := time.Now()
	res := &Result{}
	var bd *rbpBound
	if !opts.DisableBounds {
		var err error
		bd, res.Stats.ProbeConfigs, err = rbpBounds(p, T, opts, sc)
		if err != nil {
			return nil, err
		}
	}
	sc.SetPackedTie(!opts.DisablePackedTie)
	e := newRBPEngine(p, T, opts, res, sc)
	e.bd = bd

	// MaxQSize is the number of candidates across all wave heaps; a running
	// push/pop balance tracks it in O(1) instead of summing every heap's
	// length on each push.
	nWaves, queued := 1, 0
	e.emit = func(wave int, c *candidate.Candidate, key float64) {
		sc.Wave(wave).Push(key, c)
		if wave >= nWaves {
			nWaves = wave + 1
		}
		queued++
		if queued > res.Stats.MaxQSize {
			res.Stats.MaxQSize = queued
		}
	}

	init := sc.Arena.New(p.initialCandidate())
	e.tryEmit(0, init, init.D, e.store)

	var best *arrival
	// The nWaves bound is capped at NumNodes+1 for the same reason the
	// two-queue loop stops swapping there: in max-slack mode an infeasible
	// cyclic instance re-seeds identical register candidates every wave,
	// and no feasible solution needs more waves than nodes.
	for cur := 0; cur < nWaves && cur <= p.Grid.NumNodes(); cur++ {
		q := sc.Wave(cur)
		if q.Len() == 0 {
			continue
		}
		e.curWave = cur
		e.nextEpoch()
		res.Stats.Waves++
		if opts.Trace != nil {
			opts.Trace.WaveStart(cur, T*float64(cur+1))
		}
		for q.Len() > 0 {
			_, c, _ := q.Pop()
			queued--
			if c.Dead {
				continue
			}
			arr, err := e.expand(c, cur)
			if err != nil {
				return nil, err
			}
			if arr != nil {
				if !opts.MaximizeSlack {
					return e.close(arr, cur, start), nil
				}
				if best == nil || arr.slack > best.slack {
					best = arr
				}
			}
		}
		if best != nil {
			return e.close(best, cur, start), nil
		}
	}
	return nil, ErrNoPath
}
