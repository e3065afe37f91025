package server

import (
	"clockroute/api"
	"clockroute/internal/core"
	"clockroute/internal/grid"
	"clockroute/internal/planwire"
)

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
