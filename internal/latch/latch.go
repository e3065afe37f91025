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
//
// The search is core.LatchSearch: each k is one run of core's wavefront
// engine under the latch scheme, with the deepening as an outer loop.
// Every route uses the model's own latch (tech.Tech.Latch, the register
// under another name), so the latch bounds share the model's cached
// ideal-line curves. This package validates the inputs, reports the
// result and keeps the independent forward-simulation verifier (Verify).
package latch

import (
	"errors"
	"fmt"

	"clockroute/internal/core"
	"clockroute/internal/route"
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

// Route finds the minimum-latency latch-buffered path for clock period T
// with the model's latch; maxCycles bounds the latency search in clock
// cycles (0 = default).
func Route(p *core.Problem, T float64, maxCycles int, opts core.Options) (*Result, error) {
	if T <= 0 {
		return nil, fmt.Errorf("latch: non-positive clock period %g", T)
	}
	if maxCycles <= 0 {
		maxCycles = MaxCyclesDefault
	}
	path, k, st, err := core.LatchSearch(p, T, maxCycles, opts)
	switch {
	case errors.Is(err, core.ErrNoPath) && k == 0:
		return nil, ErrNoPath // the sink is unreachable
	case errors.Is(err, core.ErrNoPath):
		return nil, fmt.Errorf("%w within %d cycles", ErrNoPath, maxCycles)
	case err != nil:
		return nil, err
	}
	return &Result{
		Path:      path,
		LatencyPS: float64(k) * T,
		Cycles:    k,
		Latches:   path.NumLatches(),
		Buffers:   path.NumBuffers(),
		Stats:     st,
	}, nil
}
