// Package route represents optimized paths — a node sequence plus the
// labeling m(v) of inserted elements — and provides reconstruction from
// candidate chains, separation statistics, and an independent feasibility
// verifier built on closed-form Elmore stage delays.
//
// The verifier shares no state with the routers: it re-derives every
// register-to-register segment delay from the grid, the technology, and the
// labeling alone, so a router bug cannot hide from it.
package route

import (
	"errors"
	"fmt"

	"clockroute/internal/candidate"
	"clockroute/internal/elmore"
	"clockroute/internal/grid"
	"clockroute/internal/tech"
)

// Path is an optimized path: Nodes[0] is the source s, Nodes[len-1] the
// sink t, consecutive nodes are grid-adjacent, and Gates[i] is the element
// label m(Nodes[i]) (GateNone where only wire passes). The source and sink
// carry the driving and receiving gates g_s and g_t.
type Path struct {
	Nodes []int
	Gates []candidate.Gate
}

// ElemOf resolves a gate label to its technology element. It panics on
// GateNone, which has no element.
func ElemOf(t *tech.Tech, g candidate.Gate) tech.Element {
	switch {
	case g >= 0:
		return t.Buffers[g]
	case g == candidate.GateRegister:
		return t.Register
	case g == candidate.GateFIFO:
		return t.FIFO
	case g == candidate.GateLatch:
		return t.Latch()
	}
	panic(fmt.Sprintf("route: no element for gate %d", g))
}

// FromCandidate reconstructs the full path from the final candidate popped
// at the source, final's chain in a. The candidate chain runs source→sink;
// sourceGate and sinkGate are the initial labeling m'(s), m'(t).
func FromCandidate(a *candidate.Arena, final candidate.Ref, sourceGate, sinkGate candidate.Gate) *Path {
	p := &Path{}
	a.Walk(final, func(c *candidate.Candidate) {
		n := len(p.Nodes)
		if n == 0 || p.Nodes[n-1] != int(c.Node) {
			p.Nodes = append(p.Nodes, int(c.Node))
			p.Gates = append(p.Gates, c.Gate)
			return
		}
		// Same node seen again: the gate-insertion record precedes the
		// plain-arrival record in source→sink order, so keep any gate.
		if c.Gate != candidate.GateNone && p.Gates[n-1] == candidate.GateNone {
			p.Gates[n-1] = c.Gate
		}
	})
	p.Gates[0] = sourceGate
	p.Gates[len(p.Gates)-1] = sinkGate
	return p
}

// Len returns the number of grid edges on the path.
func (p *Path) Len() int { return len(p.Nodes) - 1 }

// Source returns the source node ID.
func (p *Path) Source() int { return p.Nodes[0] }

// Sink returns the sink node ID.
func (p *Path) Sink() int { return p.Nodes[len(p.Nodes)-1] }

// NumBuffers returns the number of inserted buffers (library elements).
func (p *Path) NumBuffers() int {
	n := 0
	for _, g := range p.Gates {
		if g >= 0 {
			n++
		}
	}
	return n
}

// NumLatches returns the number of inserted transparent latches.
func (p *Path) NumLatches() int {
	n := 0
	for _, g := range p.Gates {
		if g == candidate.GateLatch {
			n++
		}
	}
	return n
}

// NumRegisters returns the number of inserted internal registers,
// excluding the source and sink gates.
func (p *Path) NumRegisters() int {
	n := 0
	for i := 1; i < len(p.Gates)-1; i++ {
		if p.Gates[i] == candidate.GateRegister {
			n++
		}
	}
	return n
}

// FIFOIndex returns the path index of the MCFIFO, or -1 if none.
// If several are present (always a bug), the first is returned.
func (p *Path) FIFOIndex() int {
	for i, g := range p.Gates {
		if g == candidate.GateFIFO {
			return i
		}
	}
	return -1
}

// RegistersBySide returns the number of internal registers before (source
// side) and after (sink side) the MCFIFO. It returns (0, NumRegisters) when
// there is no FIFO.
func (p *Path) RegistersBySide() (regS, regT int) {
	fi := p.FIFOIndex()
	for i := 1; i < len(p.Gates)-1; i++ {
		if p.Gates[i] != candidate.GateRegister {
			continue
		}
		if fi >= 0 && i < fi {
			regS++
		} else {
			regT++
		}
	}
	return regS, regT
}

// Separation holds min/max grid-edge distances between inserted elements.
type Separation struct {
	Min, Max int
}

// RegisterSeparation returns the min and max number of grid edges between
// successive clocked elements, counting the source and sink as registers
// (Table I's MaxRegSep/MinRegSep). ok is false when the path has no
// internal clocked element (a single unbroken segment).
func (p *Path) RegisterSeparation() (sep Separation, ok bool) {
	return p.separation(func(g candidate.Gate) bool {
		return g.IsClocked()
	})
}

// ElementSeparation returns the min and max number of grid edges between
// successive inserted elements of any kind — a register or buffer and the
// following register or buffer (Table I's Max/Min R/B Sep).
func (p *Path) ElementSeparation() (sep Separation, ok bool) {
	return p.separation(func(g candidate.Gate) bool {
		return g != candidate.GateNone
	})
}

func (p *Path) separation(isStop func(candidate.Gate) bool) (Separation, bool) {
	sep := Separation{Min: -1, Max: -1}
	last := 0
	count := 0
	for i := 1; i < len(p.Nodes); i++ {
		if !isStop(p.Gates[i]) {
			continue
		}
		d := i - last
		if sep.Min == -1 || d < sep.Min {
			sep.Min = d
		}
		if d > sep.Max {
			sep.Max = d
		}
		last = i
		count++
	}
	return sep, count > 1
}

// String renders the path compactly: node coordinates are omitted; gates
// are shown as b<i> (buffer), R (register), F (MCFIFO).
func (p *Path) String() string {
	out := ""
	for i, g := range p.Gates {
		if i > 0 {
			out += "-"
		}
		switch {
		case g >= 0:
			out += fmt.Sprintf("b%d", g)
		case g == candidate.GateRegister:
			out += "R"
		case g == candidate.GateFIFO:
			out += "F"
		case g == candidate.GateLatch:
			out += "L"
		default:
			out += "."
		}
	}
	return out
}

// CheckStructure verifies the path's graph-level invariants against g:
// consecutive nodes joined by live edges, insertions only on p(v)=1 nodes,
// clocked elements only where register insertion is allowed, and clocked
// source/sink gates.
func (p *Path) CheckStructure(g *grid.Grid) error {
	if len(p.Nodes) < 2 {
		return errors.New("route: path shorter than one edge")
	}
	if len(p.Nodes) != len(p.Gates) {
		return fmt.Errorf("route: %d nodes but %d gates", len(p.Nodes), len(p.Gates))
	}
	if !p.Gates[0].IsClocked() || !p.Gates[len(p.Gates)-1].IsClocked() {
		return errors.New("route: source and sink must be clocked elements")
	}
	for i := 1; i < len(p.Nodes); i++ {
		adjacent := false
		g.ForNeighbors(p.Nodes[i-1], func(v int) {
			if v == p.Nodes[i] {
				adjacent = true
			}
		})
		if !adjacent {
			return fmt.Errorf("route: nodes %v and %v not joined by a live edge",
				g.At(p.Nodes[i-1]), g.At(p.Nodes[i]))
		}
	}
	for i, gate := range p.Gates {
		if gate == candidate.GateNone {
			continue
		}
		v := p.Nodes[i]
		if !g.Insertable(v) {
			return fmt.Errorf("route: element at blocked node %v", g.At(v))
		}
		if gate.IsClocked() && !g.RegisterInsertable(v) {
			return fmt.Errorf("route: clocked element at register-blocked node %v", g.At(v))
		}
	}
	return nil
}

// segment is a maximal run between clocked elements.
type segment struct {
	endGate candidate.Gate // the clocked element that closes the segment
	delay   float64        // Elmore delay incl. downstream setup
}

// segments computes the delay of every register-to-register segment from
// scratch using closed-form stage delays. Gate i drives the wire to the
// next inserted element; the setup of the clocked element closing each
// segment is charged to that segment.
func (p *Path) segments(m *elmore.Model) []segment {
	t := m.Tech()
	var segs []segment
	driver := ElemOf(t, p.Gates[0])
	segDelay := 0.0
	lastStop := 0
	for i := 1; i < len(p.Nodes); i++ {
		g := p.Gates[i]
		if g == candidate.GateNone {
			continue
		}
		elem := ElemOf(t, g)
		segDelay += m.StageDelay(driver, i-lastStop, elem.C)
		lastStop = i
		if g.IsClocked() {
			segs = append(segs, segment{endGate: g, delay: segDelay + elem.Setup})
			segDelay = 0
		}
		driver = elem
	}
	return segs
}

// SegmentDelays returns every register-to-register segment delay in
// source→sink order (setup included). Exposed for diagnostics and tests.
func (p *Path) SegmentDelays(m *elmore.Model) []float64 {
	segs := p.segments(m)
	out := make([]float64, len(segs))
	for i, s := range segs {
		out[i] = s.delay
	}
	return out
}

// slack tolerance for floating-point comparison between the verifier's
// closed forms and the routers' incremental arithmetic, in ps.
const verifyEps = 1e-6

// VerifySingleClock checks a path produced by RBP (or FastPath with
// T = +Inf): structure is sound, no MCFIFO present, and every segment delay
// is at most T. On success it returns the cycle latency T×(p+1).
func VerifySingleClock(p *Path, g *grid.Grid, m *elmore.Model, T float64) (latency float64, err error) {
	if err := p.CheckStructure(g); err != nil {
		return 0, err
	}
	if p.FIFOIndex() >= 0 {
		return 0, errors.New("route: single-clock path contains an MCFIFO")
	}
	for i, d := range p.SegmentDelays(m) {
		if d > T+verifyEps {
			return 0, fmt.Errorf("route: segment %d delay %.3f ps exceeds period %.3f ps", i, d, T)
		}
	}
	return T * float64(p.NumRegisters()+1), nil
}

// VerifyMultiClock checks a path produced by GALS: structure is sound,
// exactly one MCFIFO, segments on the source side meet Ts and segments on
// the sink side meet Tt. On success it returns the total latency
// Ts×(pS+1) + Tt×(pT+1).
func VerifyMultiClock(p *Path, g *grid.Grid, m *elmore.Model, Ts, Tt float64) (latency float64, err error) {
	if err := p.CheckStructure(g); err != nil {
		return 0, err
	}
	nFIFO := 0
	for _, gg := range p.Gates {
		if gg == candidate.GateFIFO {
			nFIFO++
		}
	}
	if nFIFO != 1 {
		return 0, fmt.Errorf("route: multi-clock path has %d MCFIFOs, want exactly 1", nFIFO)
	}
	segs := p.segments(m)
	inSource := true // walking source→sink: source-side until the FIFO closes a segment
	for i, s := range segs {
		T := Tt
		if inSource {
			T = Ts
		}
		if s.delay > T+verifyEps {
			side := "sink"
			if inSource {
				side = "source"
			}
			return 0, fmt.Errorf("route: %s-side segment %d delay %.3f ps exceeds period %.3f ps",
				side, i, s.delay, T)
		}
		if s.endGate == candidate.GateFIFO {
			inSource = false
		}
	}
	regS, regT := p.RegistersBySide()
	return Ts*float64(regS+1) + Tt*float64(regT+1), nil
}
