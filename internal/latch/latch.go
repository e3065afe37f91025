// Package latch implements the transparent-latch routing extension: the
// buffered routing path is synchronized with two-phase level-sensitive
// latches instead of edge-triggered registers (the direction of Hassoun,
// "Optimal use of 2-phase transparent latches in buffered maze routing",
// referenced as [9] by the paper).
//
// Latches allow *time borrowing*: a latch is transparent for half the clock
// period, so data arriving late in one half-cycle slot may eat into the
// next stage's time, as long as it arrives before the latch closes. The
// practical consequence is that segment delays no longer need to be
// individually balanced against the period — only the cumulative schedule
// matters — so latch-based routes can achieve a latency that register-based
// routes (whose every segment is hard-bounded by T) cannot, particularly
// around blockages.
//
// # Timing model
//
// The sink register captures at time 0 and every clock edge is a multiple
// of T; the source register launches at −k·T for the smallest feasible
// integer k, so the route latency is k·T. The j-th latch from the sink is
// transparent during the half-cycle slot
//
//	W_j = [−(j+1)·T/2, −j·T/2)
//
// with alternating phases implied by the alternating slot parity. Data must
// arrive at latch j before its slot closes (≤ −j·T/2 − Setup) and departs
// at max(arrival, slot open) — the max is the time-borrowing rule.
//
// # Algorithm
//
// Iterative deepening over the latency k: for each k the backward dynamic
// program searches for any feasible labeling whose source launch −k·T meets
// the accumulated deadline. Candidates carry (c, d, deadline): c and d are
// the usual fast-path load/delay, and deadline is the latest permissible
// arrival time at the most recent downstream latch (which folds the entire
// downstream borrowing chain into one scalar). Dominance pruning is
// three-dimensional — (c≤, d≤, deadline≥) — reusing the max-slack
// tri-store. Waves iterate over latch count, so within a feasible k the
// returned solution also minimizes the number of latches.
package latch

import (
	"errors"
	"fmt"
	"math"
	"time"

	"clockroute/internal/candidate"
	"clockroute/internal/core"
	"clockroute/internal/faultpoint"
	"clockroute/internal/route"
	"clockroute/internal/tech"
)

// Result reports a latch-based route.
type Result struct {
	Path *route.Path
	// LatencyPS is k·T: the capture edge minus the launch edge.
	LatencyPS float64
	// Cycles is k.
	Cycles int
	// Latches is the number of inserted transparent latches.
	Latches int
	Buffers int
	Stats   core.Stats
}

// ErrNoPath mirrors core.ErrNoPath.
var ErrNoPath = errors.New("latch: no feasible latch-based routing solution")

// MaxCyclesDefault bounds the iterative deepening when the caller passes 0.
const MaxCyclesDefault = 64

// Route finds the minimum-latency latch-buffered path for clock period T.
// l is the latch element (tech.Tech.Latch() derives one from the register);
// maxCycles bounds the latency search in clock cycles (0 = default).
func Route(p *core.Problem, T float64, l tech.Element, maxCycles int, opts core.Options) (res *Result, err error) {
	if T <= 0 {
		return nil, fmt.Errorf("latch: non-positive clock period %g", T)
	}
	if l.Kind != tech.KindLatch {
		return nil, fmt.Errorf("latch: element %q has kind %v, want latch", l.Name, l.Kind)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if maxCycles <= 0 {
		maxCycles = MaxCyclesDefault
	}
	if opts.DisableBounds && !p.Grid.Reachable(p.Source, p.Sink) {
		return nil, ErrNoPath
	}

	// One pooled scratch serves the whole iterative deepening: each latency
	// iteration recycles the previous iteration's candidates (its arena),
	// wave heaps, and pruning store instead of reallocating them. The
	// recovery boundary mirrors the core wrappers: a panic anywhere in the
	// deepening quarantines the scratch (its invariants are suspect) and
	// surfaces as a core.ErrInternal instead of killing the process.
	sc := core.GetScratch()
	defer func() {
		if r := recover(); r != nil {
			sc.Quarantine()
			res, err = nil, core.NewInternalError(r, nil)
			return
		}
		sc.Release()
	}()
	return deepen(p, T, l, maxCycles, opts, sc)
}

// deepen runs the iterative deepening over the latency on working memory
// borrowed from sc.
func deepen(p *core.Problem, T float64, l tech.Element, maxCycles int, opts core.Options, sc *core.Scratch) (*Result, error) {
	start := time.Now()
	total := &core.Stats{}
	sc.SetPackedTie(!opts.DisablePackedTie)
	// Admissible lower bounds from the pooled BFS distance field. The
	// latency floor comes from telescoping the deadline chain: any feasible
	// k satisfies k·T ≥ K(reg) + Setup(reg) + totalWireDelay, and the wire
	// delay of a path with d0 or more edges is at least d0·minEdge — so
	// cycles below kmin are provably infeasible and the iterative deepening
	// skips straight past them. The same telescoped inequality, applied per
	// candidate, prunes partial solutions whose remaining BFS distance can
	// no longer meet their accumulated deadline (see push in
	// routeFixedLatency). Bounds change which candidates are explored but
	// never which solution is returned: a pruned candidate's every
	// completion violates the source launch check, and in the tri-store a
	// doomed candidate only ever dominates other doomed candidates (the
	// dominated one has larger d, smaller slack, and the same distance).
	var bd *core.Bounds
	minEdge := 0.0
	kmin := 1
	if !opts.DisableBounds {
		bd = sc.PrepBounds(p)
		d0 := bd.DistToSource(int32(p.Sink))
		if d0 < 0 {
			return nil, ErrNoPath
		}
		minEdge = core.MinEdgeDelay(p.Model)
		reg := p.Model.Tech().Register
		floor := (reg.K + reg.Setup + float64(d0)*minEdge) / T
		if k := int(math.Ceil(floor - 1e-6*(1+floor))); k > kmin {
			kmin = k
		}
	}
	for k := kmin; k <= maxCycles; k++ {
		sc.Arena.Reset()
		sc.ResetWaves() // a feasible arrival returns mid-drain
		res, err := routeFixedLatency(p, T, l, k, opts, total, bd, minEdge, sc)
		if err == nil {
			res.Stats.Elapsed = time.Since(start)
			return res, nil
		}
		if !errors.Is(err, ErrNoPath) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w within %d cycles", ErrNoPath, maxCycles)
}

// routeFixedLatency searches for any feasible solution with latency exactly
// k·T (source launch at −k·T), on working memory borrowed from sc.
func routeFixedLatency(p *core.Problem, T float64, l tech.Element, k int, opts core.Options, total *core.Stats, bd *core.Bounds, minEdge float64, sc *core.Scratch) (*Result, error) {
	g, m := p.Grid, p.Model
	tc := m.Tech()
	reg := tc.Register
	launch := -float64(k) * T
	boundEps := 1e-6 * (1 + math.Abs(launch))

	// Latch j occupies slot [-(j+1)T/2, -jT/2); a latch whose slot opens
	// before the launch edge cannot be traversed.
	maxLatches := 2*k - 1

	// Candidates reuse the core representation: Slack holds the deadline,
	// Regs the latch count. Waves iterate over latch count, pruned by the
	// 3-D (c, d, deadline) store.
	store := sc.PrepStore(0, g.NumNodes(), true)
	stats := core.Stats{}
	// MaxQSize counts candidates across all wave heaps; a running push/pop
	// balance tracks it in O(1) instead of summing every heap per push.
	nWaves, queued := 1, 0
	push := func(w int, c *candidate.Candidate) {
		faultpoint.Must("core.wave_push")
		if bd != nil {
			// Telescoped deadline bound: every completion still pays the
			// accumulated d, at least dist·minEdge of remaining wire, and the
			// source register's intrinsic K before the (only shrinking)
			// deadline c.Slack — candidates that cannot make it are doomed.
			dist := bd.DistToSource(c.Node)
			if dist < 0 || launch+c.D+float64(dist)*minEdge+reg.K > c.Slack+boundEps {
				stats.BoundPruned++
				return
			}
		}
		var kept *candidate.Candidate
		if opts.DisablePruning {
			kept = sc.Arena.New(*c)
		} else if kept = store.Insert(&sc.Arena, c); kept == nil {
			stats.Pruned++
			return
		}
		sc.Wave(w).Push(kept.D, kept)
		if w >= nWaves {
			nWaves = w + 1
		}
		stats.Pushed++
		queued++
		if queued > stats.MaxQSize {
			stats.MaxQSize = queued
		}
	}

	// Initial candidate at the sink register: deadline = −Setup(reg).
	push(0, &candidate.Candidate{
		C: reg.C, D: 0, Slack: -reg.Setup,
		Node: int32(p.Sink), Gate: candidate.GateRegister,
	})

	finishStats := func() {
		_, _, killed := store.Stats()
		total.Killed += killed
		total.Configs += stats.Configs
		total.Pushed += stats.Pushed
		total.Pruned += stats.Pruned
		total.BoundPruned += stats.BoundPruned
		total.Waves += stats.Waves
		if stats.MaxQSize > total.MaxQSize {
			total.MaxQSize = stats.MaxQSize
		}
	}

	for cur := 0; cur < nWaves; cur++ {
		q := sc.Wave(cur)
		if q.Len() == 0 {
			continue
		}
		store.NextEpoch()
		stats.Waves++
		if opts.Trace != nil {
			opts.Trace.WaveStart(cur, float64(k)*T)
		}
		for q.Len() > 0 {
			_, c, _ := q.Pop()
			queued--
			if c.Dead {
				continue
			}
			stats.Configs++
			// The abort budget spans the whole iterative deepening, and an
			// abort (unlike per-iteration infeasibility) ends the search.
			if err := opts.CheckAbort(total.Configs + stats.Configs); err != nil {
				finishStats()
				return nil, err
			}
			if opts.Trace != nil {
				opts.Trace.Visit(cur, int(c.Node))
			}
			u := int(c.Node)

			// Source arrival: the launch edge −k·T plus the register's
			// drive delay must meet the accumulated deadline, and the
			// source stage itself must fit in one period — the register
			// launches a new word every cycle, so a longer combinational
			// stretch would collapse throughput (the paper's intro rejects
			// exactly that multicycle-combinational "solution 1").
			// Interior stages are bounded by T automatically by the
			// half-period slot schedule.
			if u == p.Source {
				drive := m.DriveInto(reg, c.C, c.D)
				if launch+drive <= c.Slack && drive <= T {
					finishStats()
					res := &Result{
						LatencyPS: float64(k) * T,
						Cycles:    k,
						Latches:   int(c.Regs),
						Stats:     *total,
					}
					res.Path = route.FromCandidate(c, candidate.GateRegister, candidate.GateRegister)
					res.Buffers = res.Path.NumBuffers()
					res.Latches = res.Path.NumLatches()
					return res, nil
				}
			}

			// Edge extension. A partial solution whose launch-time bound is
			// already violated can never recover (deadline only shrinks),
			// so prune when even an immediate ideal driver cannot make it.
			g.ForNeighbors(u, func(v int) {
				c2, d2 := m.AddEdge(c.C, c.D)
				if launch+d2 > c.Slack || d2 > T {
					return
				}
				push(cur, &candidate.Candidate{
					C: c2, D: d2, Slack: c.Slack, Node: int32(v),
					Gate: candidate.GateNone, Regs: c.Regs, Parent: c,
				})
			})

			if !g.Insertable(u) || c.Gate != candidate.GateNone ||
				u == p.Source || u == p.Sink {
				continue
			}

			// Buffer insertion.
			for bi := range tc.Buffers {
				b := tc.Buffers[bi]
				c2, d2 := m.AddGate(b, c.C, c.D)
				if launch+d2 > c.Slack || d2 > T {
					continue
				}
				push(cur, &candidate.Candidate{
					C: c2, D: d2, Slack: c.Slack, Node: c.Node,
					Gate: candidate.Gate(bi), Regs: c.Regs, Parent: c,
				})
			}

			// Latch insertion: latch j+1 in slot [-(j+2)T/2, -(j+1)T/2).
			j := int(c.Regs)
			if j >= maxLatches || !g.RegisterInsertable(u) {
				continue
			}
			open := -float64(j+2) * T / 2
			close := -float64(j+1) * T / 2
			// Latest departure (D-pin event) from the latch such that the
			// downstream chain still meets its deadline: the latch then
			// contributes K + R·c plus the accumulated wire delay d.
			rDep := c.Slack - (l.K + l.R*c.C + c.D)
			if open > rDep {
				continue // even the earliest possible departure is too late
			}
			deadline := rDep
			if close-l.Setup < deadline {
				deadline = close - l.Setup
			}
			if launch > deadline {
				continue // the launch edge itself cannot reach this latch
			}
			push(cur+1, &candidate.Candidate{
				C: l.C, D: 0, Slack: deadline, Node: c.Node,
				Gate: candidate.GateLatch, Regs: c.Regs + 1, Parent: c,
			})
		}
	}
	finishStats()
	return nil, ErrNoPath
}
