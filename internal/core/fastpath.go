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
	return fastPath(p, opts, sc)
}

// fastPath runs the search on borrowed scratch memory; everything the
// result carries is copied out before the caller releases sc.
//
// Completed solutions are tracked as an incumbent (best source close seen
// so far) instead of the older re-queued "Final" marker candidates: the
// search ends when the heap's minimum delay can no longer strictly beat
// the incumbent — every completion from a queued candidate adds a strictly
// positive close on top of its key. Value-identical Final markers from
// different parents bypassed the Pareto store and made pop order
// shape-dependent; the incumbent keeps pop order a pure function of live
// store-guarded candidates, which the A*-equivalence argument requires.
func fastPath(p *Problem, opts Options, sc *Scratch) (*Result, error) {
	start := time.Now()
	g, m := p.Grid, p.Model
	tc := p.tech()
	reg := tc.Register

	q := &sc.Q
	q.Tie = candidateTieLess // content-determined pop order; see bounds.go
	sc.SetPackedTie(!opts.DisablePackedTie)
	store := sc.PrepStore(0, g.NumNodes(), false)
	res := &Result{}

	// Admissible pruning: the route is one register-to-register segment, so
	// the segBound delay test with need = dist(v, source) never prunes a
	// candidate that can finish within the incumbent; and the shortest-path
	// DP incumbent is achieved by a labeling the kernel reaches with
	// identical float ops, so pruning against U + eps can never cut a
	// candidate that ties or beats the incumbent solution.
	var bd *Bounds
	var seg segBound
	if !opts.DisableBounds {
		sh := opts.Share
		bd = sc.prepBoundsShared(p, sh)
		if fb, ok := sh.fastBounds(p); ok {
			if fb.ok {
				seg = bd.fastBound(m, fb.threshold, fb.rem)
			}
		} else {
			fb := &incFast{}
			if u, ok := bd.pathMinDelay(p); ok {
				seg = bd.fastBound(m, u+boundEps(u), nil)
				fb.ok, fb.threshold = true, seg.limit
				if sh.owns(p.Grid) {
					fb.rem = append([]float64(nil), seg.rem...)
				}
			}
			sh.storeFastBounds(p, fb)
		}
	}

	push := func(c *candidate.Candidate, key float64) {
		faultpoint.Must("core.wave_push")
		if bd != nil {
			dist := bd.DistToSource(c.Node)
			if dist < 0 || (seg.rem != nil && seg.prune(c.C, c.D, int(dist))) {
				res.Stats.BoundPruned++
				return
			}
		}
		if !opts.DisablePruning {
			if !store.Insert(c) {
				res.Stats.Pruned++
				return
			}
		}
		q.Push(key, c)
		res.Stats.Pushed++
		if q.Len() > res.Stats.MaxQSize {
			res.Stats.MaxQSize = q.Len()
		}
	}

	init := sc.Arena.New(p.initialCandidate())
	push(init, init.D)
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
			push(sc.Arena.New(candidate.Candidate{
				C: c2, D: d2, Node: int32(v),
				Gate: candidate.GateNone, Parent: cur,
			}), d2)
		})

		// Steps 7-8: insert each library buffer at u. The endpoints are
		// excluded: m(s) and m(t) are fixed to the port gates.
		if g.Insertable(u) && cur.Gate == candidate.GateNone &&
			u != p.Source && u != p.Sink {
			for bi := range tc.Buffers {
				b := tc.Buffers[bi]
				c2, d2 := m.AddGate(b, cur.C, cur.D)
				push(sc.Arena.New(candidate.Candidate{
					C: c2, D: d2, Node: cur.Node,
					Gate: candidate.Gate(bi), Parent: cur,
				}), d2)
			}
		}
	}
	if best == nil {
		return nil, ErrNoPath
	}
	res.Latency = bestD
	res.SourceDelay = bestD
	res.Stats.Elapsed = time.Since(start)
	p.finish(best, res)
	return res, nil
}
