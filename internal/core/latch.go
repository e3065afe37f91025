package core

import (
	"errors"
	"math"
	"time"

	"clockroute/internal/candidate"
	"clockroute/internal/elmore"
	"clockroute/internal/route"
	"clockroute/internal/tech"
)

// latchScheme is the data of the latch router's search at a fixed cycle
// count k (package latch documents the timing model). Its scheme is one
// domain of period T without look-ahead, with wave heaps over the latch
// count; a candidate's Slack is its deadline, which the source register
// launching at −k·T must meet, and so must every edge and buffer on the
// way. A latch closes a segment in a half-period slot, and the bound is
// the deadline chain telescoped over the candidate's remaining BFS
// distance.
type latchScheme struct {
	el         tech.Element // the latch
	T          float64
	launch     float64 // −k·T
	maxLatches int     // 2k−1: latch j's slot must open after the launch edge

	// The telescoped deadline bound: every completion still pays at least
	// dist·minEdge of wire and the source register's K, under eps.
	minEdge, regK, eps float64
}

// newLatchScheme returns the latch router's scheme for k cycles.
func newLatchScheme(p *Problem, T float64, l tech.Element, k int) *scheme {
	launch := -float64(k) * T
	ls := &latchScheme{el: l, T: T, launch: launch, maxLatches: 2*k - 1, minEdge: minEdgeDelay(p.Model),
		regK: p.tech().Register.K, eps: 1e-6 * (1 + math.Abs(launch))}
	return &scheme{dom: [2]domain{{T: T}}, nd: 1, queue: arrayQueues, latch: ls}
}

// meets reports whether a delay d after the launch edge meets deadline.
// Outside the latch scheme (ls nil) there is no deadline to meet.
func (ls *latchScheme) meets(d, deadline float64) bool {
	return ls == nil || ls.launch+d <= deadline
}

// slot returns the deadline of a latch inserted at c's node, the next one
// upstream of c's c.Regs latches: latch j+1 sits in the slot
// [−(j+2)T/2, −(j+1)T/2). It reports false when even the earliest
// departure misses c's deadline or the launch edge cannot reach the slot.
func (ls *latchScheme) slot(c *candidate.Candidate) (float64, bool) {
	j := int(c.Regs)
	if j >= ls.maxLatches {
		return 0, false
	}
	open := -float64(j+2) * ls.T / 2
	close := -float64(j+1) * ls.T / 2
	// Latest departure (D-pin event) from the latch such that the
	// downstream chain still meets its deadline: the latch then
	// contributes K + R·c plus the accumulated wire delay d.
	rDep := c.Slack - (ls.el.K + ls.el.R*c.C + c.D)
	if open > rDep {
		return 0, false
	}
	deadline := rDep
	if close-ls.el.Setup < deadline {
		deadline = close - ls.el.Setup
	}
	return deadline, ls.launch <= deadline
}

// prune is the telescoped deadline bound for a candidate with delay d and
// deadline slack at BFS distance dist from the source: every completion
// still pays d, at least dist·minEdge of wire and the source register's
// K before the (only shrinking) deadline. A pruned candidate's every
// completion violates the source launch check, and in the tri-store a
// doomed candidate only ever dominates doomed ones (the dominated one has
// larger d, a smaller deadline and the same distance).
func (ls *latchScheme) prune(d, slack float64, dist int) bool {
	return ls.launch+d+float64(dist)*ls.minEdge+ls.regK > slack+ls.eps
}

// minEdgeDelay returns the smallest Elmore delay a single grid edge can add
// to any candidate: edgeR·edgeC/2, the wire term at zero downstream load.
func minEdgeDelay(m *elmore.Model) float64 { return m.EdgeR() * m.EdgeC() / 2 }

// LatchSearch is the latch router's search: iterative deepening over the
// cycle count k, each k one search of the latch scheme, all on one pooled
// scratch. It returns the path of the first feasible k with the effort
// summed over every k tried. On failure k is the last count tried: 0
// when the sink is unreachable, maxCycles when no k up to it admits a
// path (both ErrNoPath).
func LatchSearch(p *Problem, T float64, l tech.Element, maxCycles int, opts Options) (*route.Path, int, Stats, error) {
	res, k, err := latchSearch(p, T, l, maxCycles, opts)
	if err != nil {
		return nil, k, Stats{}, err
	}
	return res.Path, k, res.Stats, nil
}

func latchSearch(p *Problem, T float64, l tech.Element, maxCycles int, opts Options) (res *Result, k int, err error) {
	sc := getScratch()
	defer containSearchPanic(sc, &res, &err)
	start := time.Now()
	// The latency floor comes from telescoping the deadline chain: any
	// feasible k satisfies k·T ≥ K(reg) + Setup(reg) + totalWireDelay, and
	// the wire delay of a path with d0 or more edges is at least
	// d0·minEdge — so cycles below kmin are provably infeasible and the
	// deepening skips straight past them. Bounds change which candidates
	// are explored but never which solution is returned.
	kmin := 1
	if opts.DisableBounds {
		if !p.Grid.Reachable(p.Source, p.Sink) {
			return nil, 0, ErrNoPath
		}
	} else {
		d0 := sc.prepBounds(p).distSrc[p.Sink]
		if d0 < 0 {
			return nil, 0, ErrNoPath
		}
		reg := p.tech().Register
		floor := (reg.K + reg.Setup + float64(d0)*minEdgeDelay(p.Model)) / T
		kmin = max(kmin, int(math.Ceil(floor-1e-6*(1+floor))))
	}
	res = &Result{}
	for k = kmin; k <= maxCycles; k++ {
		// Each k recycles the previous one's arena and wave heaps; a
		// feasible arrival returns mid-drain.
		sc.resetSearchState()
		if _, err = search(p, newLatchScheme(p, T, l, k), opts, sc, nil, res); !errors.Is(err, ErrNoPath) {
			break
		}
	}
	switch {
	case k > maxCycles:
		return nil, maxCycles, ErrNoPath
	case err != nil:
		return nil, k, err
	}
	res.Stats.Elapsed = time.Since(start)
	return res, k, nil
}
