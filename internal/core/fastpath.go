package core

import (
	"math"
	"time"

	"clockroute/internal/candidate"
	"clockroute/internal/faultpoint"
)

// FastPath finds the minimum Elmore-delay buffered path from the problem's
// source to its sink, exploring all routing and buffer-insertion options
// simultaneously (Zhou et al., Fig. 1 of the paper). The source and sink
// are modeled as registers (g_s = g_t = r) so results are directly
// comparable with RBP: the reported Latency is the full source-to-sink
// delay including the driver delay and the sink setup.
func FastPath(p *Problem, opts Options) (res *Result, err error) {
	sc := GetScratch()
	defer containSearchPanic(sc, &res, &err)
	return fastPath(p, opts, sc, nil)
}

// fastPathBounds prepares FastPath's admissible-bound state: the BFS
// distance field and, when the kernel probed on one shortest path finds a
// route, the delay table of the single register-to-register segment under
// that route's delay, within the source's BFS radius. The segBound test
// with need = dist(v, source) never prunes a candidate that can finish
// within the incumbent, and the incumbent is a delay the kernel reaches
// with identical float ops, so pruning against U + eps never cuts a
// candidate that ties or beats it. Without an incumbent the table is nil.
// Only an abort propagates as err.
func fastPathBounds(p *Problem, opts Options, sc *Scratch) (*Bounds, segBound, int, error) {
	bd := sc.prepBoundsShared(p, opts.Share)
	inc, probeConfigs, err := sc.probe(p, opts, func(o Options, win *nodeFlags) (*Result, error) {
		return fastPath(p, o, sc, win)
	})
	if err != nil || inc == nil {
		return bd, segBound{}, probeConfigs, err
	}
	u := inc.Latency + boundEps(inc.Latency)
	return bd, bd.segBound(0, p.Model, u, int(bd.maxSrc), false, false), probeConfigs, nil
}

// fastPath runs the search on borrowed scratch memory; everything the
// result carries is copied out before the caller releases sc.
//
// Completed solutions are tracked as an incumbent (best source close seen
// so far), not re-queued as marker candidates: the search ends when the
// heap's minimum delay can no longer strictly beat the incumbent — every
// completion from a queued candidate adds a strictly positive close on top
// of its key. Value-identical markers from different parents would bypass
// the Pareto store and make pop order shape-dependent; the incumbent keeps
// pop order a pure function of live store-guarded candidates, which the
// A*-equivalence argument requires.
func fastPath(p *Problem, opts Options, sc *Scratch, win *nodeFlags) (*Result, error) {
	start := time.Now()
	g, m := p.Grid, p.Model
	tc := p.tech()
	reg := tc.Register
	res := &Result{}

	var bd *Bounds
	var seg segBound
	if !opts.DisableBounds {
		var err error
		bd, seg, res.Stats.ProbeConfigs, err = fastPathBounds(p, opts, sc)
		if err != nil {
			return nil, err
		}
	}
	q := &sc.Q
	q.Tie = candidateTieLess // content-determined pop order; see bounds.go
	sc.SetPackedTie(!opts.DisablePackedTie)
	store := sc.PrepStore(0, g.NumNodes(), false)

	// push runs the bound tests and the dominance test on c's value; only a
	// candidate that passes them all takes an arena slot.
	push := func(c *candidate.Candidate) {
		faultpoint.Must("core.wave_push")
		if win != nil && !win.Has(int(c.Node)) {
			res.Stats.BoundPruned++
			return
		}
		if bd != nil {
			dist := bd.DistToSource(c.Node)
			if dist < 0 || (seg.rem != nil && seg.prune(c.C, c.D, int(dist))) {
				res.Stats.BoundPruned++
				return
			}
		}
		var kept *candidate.Candidate
		if opts.DisablePruning {
			kept = sc.Arena.New(*c)
		} else if kept = store.Insert(&sc.Arena, c); kept == nil {
			res.Stats.Pruned++
			return
		}
		q.Push(kept.D, kept)
		res.Stats.Pushed++
		if q.Len() > res.Stats.MaxQSize {
			res.Stats.MaxQSize = q.Len()
		}
	}

	init := p.initialCandidate()
	push(&init)
	if opts.Trace != nil {
		opts.Trace.WaveStart(0, math.Inf(1))
	}
	res.Stats.Waves = 1

	var best *candidate.Candidate
	bestD := math.Inf(1)
	for q.Len() > 0 {
		if key, _, _ := q.Peek(); best != nil && key >= bestD {
			// Every completion from anything still queued costs its key plus
			// a strictly positive close — nothing can beat the incumbent.
			break
		}
		_, cur, _ := q.Pop()
		if cur.Dead {
			continue
		}
		res.Stats.Configs++
		if err := opts.CheckAbort(res.Stats.Configs); err != nil {
			return nil, err
		}
		if opts.Trace != nil {
			opts.Trace.Visit(0, int(cur.Node))
		}

		u := int(cur.Node)
		if u == p.Source {
			if d2 := m.DriveInto(reg, cur.C, cur.D); d2 < bestD {
				bestD, best = d2, cur
			}
		}

		// Step 6: extend across each live edge.
		g.ForNeighbors(u, func(v int) {
			c2, d2 := m.AddEdge(cur.C, cur.D)
			push(&candidate.Candidate{
				C: c2, D: d2, Node: int32(v),
				Gate: candidate.GateNone, Parent: cur,
			})
		})

		// Steps 7-8: insert each library buffer at u. The endpoints are
		// excluded: m(s) and m(t) are fixed to the port gates.
		if g.Insertable(u) && cur.Gate == candidate.GateNone &&
			u != p.Source && u != p.Sink {
			for bi := range tc.Buffers {
				b := tc.Buffers[bi]
				c2, d2 := m.AddGate(b, cur.C, cur.D)
				push(&candidate.Candidate{
					C: c2, D: d2, Node: cur.Node,
					Gate: candidate.Gate(bi), Parent: cur,
				})
			}
		}
	}
	_, _, res.Stats.Killed = store.Stats()
	if best == nil {
		return res, ErrNoPath // res carries the effort a probe reports
	}
	res.Latency = bestD
	res.SourceDelay = bestD
	res.Stats.Elapsed = time.Since(start)
	if win == nil { // the probe reads only the delay
		p.finish(best, res)
	}
	return res, nil
}
