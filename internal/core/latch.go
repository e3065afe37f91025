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
// way. A latch closes a segment in a half-period slot; it is the model's
// own latch (tech.Latch), the register under another name.
type latchScheme struct {
	el         tech.Element // the latch
	T          float64
	launch     float64 // −k·T
	maxLatches int     // 2k−1: latch j's slot must open after the launch edge
}

// newLatchScheme returns the latch router's scheme for k cycles.
func newLatchScheme(p *Problem, T float64, k int) *scheme {
	ls := &latchScheme{el: p.tech().Latch(), T: T, launch: -float64(k) * T, maxLatches: 2*k - 1}
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

// latchBound returns the deadline test of the search whose source
// register launches lat = k·T before the capture: a candidate
// (c, d, deadline) at BFS distance dist from the source is doomed when
//
//	d − deadline + slope·(c − cmin) + rem[dist] > lat + eps,
//
// rem being the latch line (latchSeg): the least delay over ideal-line
// labelings of dist or more edges with buffers and latches as repeaters,
// closed by the source register. A latch departs at max(arrival, open),
// never before its data arrives, so every latch of a completion is at
// best one more repeater with its own K, R and C, and the launch plus
// that delay must meet the (only shrinking) deadline. The test grows with
// c and d and shrinks with the deadline, so in the tri-store a doomed
// candidate only ever dominates doomed ones.
func latchBound(b *Bounds, m *elmore.Model, lat float64) segBound {
	return b.segBound(0, m, lat+boundEps(lat), int(b.maxSrc), latchSeg)
}

// LatchSearch is the latch router's search: iterative deepening over the
// cycle count k, each k one search of the latch scheme with the model's
// latch, all on one pooled scratch. It returns the path of the first
// feasible k with the effort summed over every k tried. On failure k is
// the last count tried: 0 when the sink is unreachable, maxCycles when no
// k up to it admits a path (both ErrNoPath).
func LatchSearch(p *Problem, T float64, maxCycles int, opts Options) (*route.Path, int, Stats, error) {
	res, k, err := latchSearch(p, T, maxCycles, opts)
	if err != nil {
		return nil, k, Stats{}, err
	}
	return res.Path, k, res.Stats, nil
}

func latchSearch(p *Problem, T float64, maxCycles int, opts Options) (res *Result, k int, err error) {
	sc := getScratch()
	defer containSearchPanic(sc, &res, &err)
	start := time.Now()
	// The latency floor is the deadline test applied to the sink's own
	// state (C(reg), 0, −Setup(reg)), on the table of the largest launch
	// the deepening can use: the test prunes the sink, and so every
	// completion, at every k below the floor. Bounds change which
	// candidates are explored but never which solution is returned.
	kmin := 1
	if opts.DisableBounds {
		if !p.Grid.Reachable(p.Source, p.Sink) {
			return nil, 0, ErrNoPath
		}
	} else {
		b := sc.prepBounds(p)
		d0 := b.distSrc[p.Sink]
		if d0 < 0 {
			return nil, 0, ErrNoPath
		}
		reg := p.tech().Register
		sb := latchBound(b, p.Model, float64(maxCycles)*T)
		floor := (reg.Setup + sb.slope*(reg.C-sb.cmin) + sb.rem[d0]) / T
		// A floor past maxCycles, or a +Inf entry (no labeling within the
		// largest launch, whose kf is NaN): no k admits a path. Go's
		// conversion of NaN or ±Inf to int is implementation-defined.
		kf := math.Ceil(floor - 1e-6*(1+floor))
		if !(kf <= float64(maxCycles)) {
			return nil, maxCycles, ErrNoPath
		}
		kmin = max(kmin, int(kf))
	}
	res = &Result{}
	for k = kmin; k <= maxCycles; k++ {
		// Each k recycles the previous one's arena and wave heaps; a
		// feasible arrival returns mid-drain.
		sc.resetSearchState()
		if _, err = search(p, newLatchScheme(p, T, k), opts, sc, nil, res); !errors.Is(err, ErrNoPath) {
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
