// Package planwire converts between the wire types of package api and the
// engine types of the planner: grid construction from a GridSpec, NetSpec
// conversion, and the rendering of routed nets and batch statistics back
// into their response shapes. It exists one layer below internal/server so
// that every front end — the HTTP plan pipeline and the sharding
// coordinator's local degraded path — renders results through the same
// code and cannot drift apart byte-wise.
package planwire

import (
	"fmt"

	"clockroute/api"
	"clockroute/internal/candidate"
	"clockroute/internal/core"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/planner"
	"clockroute/internal/route"
	"clockroute/internal/tech"
	"clockroute/internal/telemetry"
)

// BuildGrid materializes a validated GridSpec. api validation has already
// bounded the dimensions, so grid.New cannot be handed panic-worthy input.
func BuildGrid(spec *api.GridSpec) (*grid.Grid, error) {
	g, err := grid.New(spec.W, spec.H, spec.PitchMM)
	if err != nil {
		return nil, fmt.Errorf("server: grid: %w", err)
	}
	for _, r := range spec.Obstacles {
		g.AddObstacle(geom.R(r.X0, r.Y0, r.X1, r.Y1))
	}
	for _, r := range spec.RegisterBlockages {
		g.AddRegisterBlockage(geom.R(r.X0, r.Y0, r.X1, r.Y1))
	}
	for _, r := range spec.WiringBlockages {
		g.AddWiringBlockage(geom.R(r.X0, r.Y0, r.X1, r.Y1))
	}
	return g, nil
}

// NewStreamPlanner builds a planner over a plan's grid, with the given
// telemetry sink installed; the nets are streamed into it afterwards
// (Planner.RunStream), whichever wire form they arrived in.
func NewStreamPlanner(spec *api.GridSpec, tc *tech.Tech, sink telemetry.Sink) (*planner.Planner, error) {
	g, err := BuildGrid(spec)
	if err != nil {
		return nil, err
	}
	pl, err := planner.NewFromGrid(g, tc, core.Options{Telemetry: sink})
	if err != nil {
		return nil, fmt.Errorf("server: planner: %w", err)
	}
	return pl, nil
}

// SpecFromNet converts one wire net into a planner spec.
func SpecFromNet(n *api.NetSpec) planner.NetSpec {
	return planner.NetSpec{
		Name:        n.Name,
		Src:         geom.Pt(n.Src.X, n.Src.Y),
		Dst:         geom.Pt(n.Dst.X, n.Dst.Y),
		SrcPeriodPS: n.SrcPeriodPS,
		DstPeriodPS: n.DstPeriodPS,
		WireWidths:  n.WireWidths,
	}
}

// GateName renders a gate label for the wire: "" for plain wire, "reg",
// "fifo", "latch", or "buf<N>" for buffer N of the technology library.
func GateName(g candidate.Gate) string {
	switch {
	case g == candidate.GateNone:
		return ""
	case g == candidate.GateRegister:
		return "reg"
	case g == candidate.GateFIFO:
		return "fifo"
	case g == candidate.GateLatch:
		return "latch"
	case g >= 0:
		return fmt.Sprintf("buf%d", int(g))
	}
	return fmt.Sprintf("gate(%d)", int(g))
}

// ParseGate is the inverse of GateName, used by clients (and the e2e
// tests) to rebuild a route.Path from a response for re-verification.
func ParseGate(s string) (candidate.Gate, error) {
	switch s {
	case "":
		return candidate.GateNone, nil
	case "reg":
		return candidate.GateRegister, nil
	case "fifo":
		return candidate.GateFIFO, nil
	case "latch":
		return candidate.GateLatch, nil
	}
	var n int
	if _, err := fmt.Sscanf(s, "buf%d", &n); err != nil || n < 0 {
		return 0, fmt.Errorf("server: unknown gate label %q", s)
	}
	return candidate.Gate(n), nil
}

// PathOnWire renders a path's nodes and gate labels for a response.
func PathOnWire(p *route.Path, g *grid.Grid) (pts []api.Point, gates []string) {
	pts = make([]api.Point, len(p.Nodes))
	gates = make([]string, len(p.Gates))
	for i, n := range p.Nodes {
		pt := g.At(n)
		pts[i] = api.Point{X: pt.X, Y: pt.Y}
	}
	for i, gt := range p.Gates {
		gates[i] = GateName(gt)
	}
	return pts, gates
}

// NetResultOnWire renders one routed net. The result cache stores values
// of this exact shape, so a cached hit, a fresh route, and a coordinator's
// locally degraded route are rendered by the same code and cannot drift
// apart.
func NetResultOnWire(n *planner.NetResult, g *grid.Grid) api.NetResult {
	nr := api.NetResult{Name: n.Spec.Name, Mode: string(n.Mode), ElapsedNS: n.Elapsed.Nanoseconds()}
	if n.Err != nil {
		nr.Error = n.Err.Error()
	} else {
		nr.LatencyPS = n.LatencyPS
		nr.SrcCycles = n.SrcCycles
		nr.DstCycles = n.DstCycles
		nr.Registers = n.Registers
		nr.Buffers = n.Buffers
		nr.WireMM = n.WireMM
		nr.WireWidth = n.WireWidth
		nr.Path, nr.Gates = PathOnWire(n.Path, g)
	}
	return nr
}

// PlanStatsOnWire renders a batch's aggregate stats. They reflect work
// actually performed this request; cached nets contribute nothing here
// beyond the NetsRouted adjustment the plan pipeline applies.
func PlanStatsOnWire(st planner.PlanStats) api.PlanStats {
	return api.PlanStats{
		Workers:           st.Workers,
		NetsRouted:        st.NetsRouted,
		NetsFailed:        st.NetsFailed,
		TotalConfigs:      st.TotalConfigs,
		TotalPushed:       st.TotalPushed,
		TotalPruned:       st.TotalPruned,
		TotalBoundPruned:  st.TotalBoundPruned,
		TotalProbeConfigs: st.TotalProbeConfigs,
		TotalWaves:        st.TotalWaves,
		MaxQSize:          st.MaxQSize,
		ElapsedNS:         st.Elapsed.Nanoseconds(),
	}
}
