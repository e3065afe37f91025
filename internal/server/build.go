package server

import (
	"fmt"

	"clockroute/api"
	"clockroute/internal/core"
	"clockroute/internal/elmore"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/planwire"
	"clockroute/internal/tech"
)

// buildRoute turns a decoded RouteRequest into a core problem and request.
func buildRoute(req *api.RouteRequest, tc *tech.Tech) (*core.Problem, core.Request, error) {
	g, err := planwire.BuildGrid(&req.Grid)
	if err != nil {
		return nil, core.Request{}, err
	}
	m, err := elmore.NewModel(tc, g.PitchMM())
	if err != nil {
		return nil, core.Request{}, fmt.Errorf("server: model: %w", err)
	}
	prob, err := core.NewProblem(g, m, g.ID(geom.Pt(req.Src.X, req.Src.Y)), g.ID(geom.Pt(req.Dst.X, req.Dst.Y)))
	if err != nil {
		return nil, core.Request{}, fmt.Errorf("server: %w", err)
	}
	kind, err := core.ParseKind(req.Kind)
	if err != nil {
		return nil, core.Request{}, err
	}
	return prob, core.Request{
		Kind:        kind,
		PeriodPS:    req.PeriodPS,
		SrcPeriodPS: req.SrcPeriodPS,
		DstPeriodPS: req.DstPeriodPS,
		ArrayQueues: req.ArrayQueues,
	}, nil
}

// routeResponse renders a search result.
func routeResponse(res *core.Result, g *grid.Grid) *api.RouteResponse {
	out := &api.RouteResponse{
		LatencyPS:     res.Latency,
		SourceDelayPS: res.SourceDelay,
		SlackPS:       res.SlackPS,
		Registers:     res.Registers,
		Buffers:       res.Buffers,
		Stats: api.SearchStats{
			Configs:      res.Stats.Configs,
			Pushed:       res.Stats.Pushed,
			Pruned:       res.Stats.Pruned,
			BoundPruned:  res.Stats.BoundPruned,
			ProbeConfigs: res.Stats.ProbeConfigs,
			Killed:       res.Stats.Killed,
			Waves:        res.Stats.Waves,
			MaxQSize:     res.Stats.MaxQSize,
			ElapsedNS:    res.Stats.Elapsed.Nanoseconds(),
		},
	}
	if res.Path != nil {
		out.Path, out.Gates = planwire.PathOnWire(res.Path, g)
	}
	return out
}
