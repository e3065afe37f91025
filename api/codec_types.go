package api

// Per-type halves of the wire codec (codec.go). Each encoder writes its
// struct's fields in declaration order under their json tags, honoring
// omitempty; each decoder's field table lists the same names. A field
// added to a wire type must be added to both, or the codec's property
// tests, which fill every field by reflection, fail.

func (e *encoder) point(v *Point) {
	e.b = append(e.b, `{"x":`...)
	e.int(int64(v.X))
	e.b = append(e.b, `,"y":`...)
	e.int(int64(v.Y))
	e.b = append(e.b, '}')
}

var pointFields = []string{"x", "y"}

func (d *decoder) point(v *Point) {
	for ok := d.object("Point"); ok; ok = d.more() {
		switch d.key(pointFields) {
		case "x":
			d.int(&v.X)
		case "y":
			d.int(&v.Y)
		default:
			d.skip()
		}
	}
}

func (e *encoder) rect(v *Rect) {
	e.b = append(e.b, `{"x0":`...)
	e.int(int64(v.X0))
	e.b = append(e.b, `,"y0":`...)
	e.int(int64(v.Y0))
	e.b = append(e.b, `,"x1":`...)
	e.int(int64(v.X1))
	e.b = append(e.b, `,"y1":`...)
	e.int(int64(v.Y1))
	e.b = append(e.b, '}')
}

var rectFields = []string{"x0", "y0", "x1", "y1"}

func (d *decoder) rect(v *Rect) {
	for ok := d.object("Rect"); ok; ok = d.more() {
		switch d.key(rectFields) {
		case "x0":
			d.int(&v.X0)
		case "y0":
			d.int(&v.Y0)
		case "x1":
			d.int(&v.X1)
		case "y1":
			d.int(&v.Y1)
		default:
			d.skip()
		}
	}
}

func (d *decoder) rects(s *[]Rect) { slice(d, s, (*decoder).rect, "[]Rect") }

func (e *encoder) gridSpec(v *GridSpec) {
	e.b = append(e.b, `{"w":`...)
	e.int(int64(v.W))
	e.b = append(e.b, `,"h":`...)
	e.int(int64(v.H))
	e.b = append(e.b, `,"pitch_mm":`...)
	e.float(v.PitchMM)
	if len(v.Obstacles) > 0 {
		e.b = append(e.b, `,"obstacles":`...)
		array(e, v.Obstacles, (*encoder).rect)
	}
	if len(v.RegisterBlockages) > 0 {
		e.b = append(e.b, `,"register_blockages":`...)
		array(e, v.RegisterBlockages, (*encoder).rect)
	}
	if len(v.WiringBlockages) > 0 {
		e.b = append(e.b, `,"wiring_blockages":`...)
		array(e, v.WiringBlockages, (*encoder).rect)
	}
	e.b = append(e.b, '}')
}

var gridSpecFields = []string{"w", "h", "pitch_mm", "obstacles", "register_blockages", "wiring_blockages"}

func (d *decoder) gridSpec(v *GridSpec) {
	for ok := d.object("GridSpec"); ok; ok = d.more() {
		switch d.key(gridSpecFields) {
		case "w":
			d.int(&v.W)
		case "h":
			d.int(&v.H)
		case "pitch_mm":
			d.float(&v.PitchMM)
		case "obstacles":
			d.rects(&v.Obstacles)
		case "register_blockages":
			d.rects(&v.RegisterBlockages)
		case "wiring_blockages":
			d.rects(&v.WiringBlockages)
		default:
			d.skip()
		}
	}
}

func (e *encoder) cacheOptions(v *CacheOptions) {
	e.b = append(e.b, '{')
	if v.Mode != "" {
		e.key(`"mode":`)
		e.string(v.Mode)
	}
	e.b = append(e.b, '}')
}

var cacheOptionsFields = []string{"mode"}

func (d *decoder) cacheOptions(v *CacheOptions) {
	for ok := d.object("CacheOptions"); ok; ok = d.more() {
		switch d.key(cacheOptionsFields) {
		case "mode":
			d.string(&v.Mode)
		default:
			d.skip()
		}
	}
}

func (e *encoder) routeRequest(v *RouteRequest) {
	e.b = append(e.b, `{"grid":`...)
	e.gridSpec(&v.Grid)
	e.b = append(e.b, `,"kind":`...)
	e.string(v.Kind)
	if v.PeriodPS != 0 {
		e.b = append(e.b, `,"period_ps":`...)
		e.float(v.PeriodPS)
	}
	if v.SrcPeriodPS != 0 {
		e.b = append(e.b, `,"src_period_ps":`...)
		e.float(v.SrcPeriodPS)
	}
	if v.DstPeriodPS != 0 {
		e.b = append(e.b, `,"dst_period_ps":`...)
		e.float(v.DstPeriodPS)
	}
	e.b = append(e.b, `,"src":`...)
	e.point(&v.Src)
	e.b = append(e.b, `,"dst":`...)
	e.point(&v.Dst)
	if v.TimeoutMS != 0 {
		e.b = append(e.b, `,"timeout_ms":`...)
		e.int(int64(v.TimeoutMS))
	}
	if v.MaxConfigs != 0 {
		e.b = append(e.b, `,"max_configs":`...)
		e.int(int64(v.MaxConfigs))
	}
	if v.Cache != nil {
		e.b = append(e.b, `,"cache":`...)
		e.cacheOptions(v.Cache)
	}
	e.b = append(e.b, '}')
}

var routeRequestFields = []string{"grid", "kind", "period_ps", "src_period_ps", "dst_period_ps",
	"src", "dst", "timeout_ms", "max_configs", "cache"}

func (d *decoder) routeRequest(v *RouteRequest) {
	for ok := d.object("RouteRequest"); ok; ok = d.more() {
		switch d.key(routeRequestFields) {
		case "grid":
			d.gridSpec(&v.Grid)
		case "kind":
			d.string(&v.Kind)
		case "period_ps":
			d.float(&v.PeriodPS)
		case "src_period_ps":
			d.float(&v.SrcPeriodPS)
		case "dst_period_ps":
			d.float(&v.DstPeriodPS)
		case "src":
			d.point(&v.Src)
		case "dst":
			d.point(&v.Dst)
		case "timeout_ms":
			d.int(&v.TimeoutMS)
		case "max_configs":
			d.int(&v.MaxConfigs)
		case "cache":
			pointer(d, &v.Cache, (*decoder).cacheOptions)
		default:
			d.skip()
		}
	}
}

func (e *encoder) netSpec(v *NetSpec) {
	e.b = append(e.b, `{"name":`...)
	e.string(v.Name)
	e.b = append(e.b, `,"src":`...)
	e.point(&v.Src)
	e.b = append(e.b, `,"dst":`...)
	e.point(&v.Dst)
	e.b = append(e.b, `,"src_period_ps":`...)
	e.float(v.SrcPeriodPS)
	e.b = append(e.b, `,"dst_period_ps":`...)
	e.float(v.DstPeriodPS)
	if len(v.WireWidths) > 0 {
		e.b = append(e.b, `,"wire_widths":`...)
		array(e, v.WireWidths, (*encoder).floatElem)
	}
	e.b = append(e.b, '}')
}

var netSpecFields = []string{"name", "src", "dst", "src_period_ps", "dst_period_ps", "wire_widths"}

func (d *decoder) netSpec(v *NetSpec) {
	for ok := d.object("NetSpec"); ok; ok = d.more() {
		switch d.key(netSpecFields) {
		case "name":
			d.string(&v.Name)
		case "src":
			d.point(&v.Src)
		case "dst":
			d.point(&v.Dst)
		case "src_period_ps":
			d.float(&v.SrcPeriodPS)
		case "dst_period_ps":
			d.float(&v.DstPeriodPS)
		case "wire_widths":
			slice(d, &v.WireWidths, (*decoder).float, "[]float64")
		default:
			d.skip()
		}
	}
}

func (e *encoder) planRequest(v *PlanRequest) {
	e.b = append(e.b, `{"grid":`...)
	e.gridSpec(&v.Grid)
	e.b = append(e.b, `,"nets":`...)
	array(e, v.Nets, (*encoder).netSpec)
	if v.Workers != 0 {
		e.b = append(e.b, `,"workers":`...)
		e.int(int64(v.Workers))
	}
	if v.TimeoutMS != 0 {
		e.b = append(e.b, `,"timeout_ms":`...)
		e.int(int64(v.TimeoutMS))
	}
	if v.Cache != nil {
		e.b = append(e.b, `,"cache":`...)
		e.cacheOptions(v.Cache)
	}
	e.b = append(e.b, '}')
}

var planRequestFields = []string{"grid", "nets", "workers", "timeout_ms", "cache"}

func (d *decoder) planRequest(v *PlanRequest) {
	for ok := d.object("PlanRequest"); ok; ok = d.more() {
		switch d.key(planRequestFields) {
		case "grid":
			d.gridSpec(&v.Grid)
		case "nets":
			slice(d, &v.Nets, (*decoder).netSpec, "[]NetSpec")
		case "workers":
			d.int(&v.Workers)
		case "timeout_ms":
			d.int(&v.TimeoutMS)
		case "cache":
			pointer(d, &v.Cache, (*decoder).cacheOptions)
		default:
			d.skip()
		}
	}
}

func (e *encoder) planStreamHeader(v *PlanStreamHeader) {
	e.b = append(e.b, `{"grid":`...)
	e.gridSpec(&v.Grid)
	if v.Workers != 0 {
		e.b = append(e.b, `,"workers":`...)
		e.int(int64(v.Workers))
	}
	if v.TimeoutMS != 0 {
		e.b = append(e.b, `,"timeout_ms":`...)
		e.int(int64(v.TimeoutMS))
	}
	if v.Cache != nil {
		e.b = append(e.b, `,"cache":`...)
		e.cacheOptions(v.Cache)
	}
	e.b = append(e.b, '}')
}

var planStreamHeaderFields = []string{"grid", "workers", "timeout_ms", "cache"}

func (d *decoder) planStreamHeader(v *PlanStreamHeader) {
	for ok := d.object("PlanStreamHeader"); ok; ok = d.more() {
		switch d.key(planStreamHeaderFields) {
		case "grid":
			d.gridSpec(&v.Grid)
		case "workers":
			d.int(&v.Workers)
		case "timeout_ms":
			d.int(&v.TimeoutMS)
		case "cache":
			pointer(d, &v.Cache, (*decoder).cacheOptions)
		default:
			d.skip()
		}
	}
}

func (e *encoder) searchStats(v *SearchStats) {
	e.b = append(e.b, `{"configs":`...)
	e.int(int64(v.Configs))
	e.b = append(e.b, `,"pushed":`...)
	e.int(int64(v.Pushed))
	e.b = append(e.b, `,"pruned":`...)
	e.int(int64(v.Pruned))
	if v.BoundPruned != 0 {
		e.b = append(e.b, `,"bound_pruned":`...)
		e.int(int64(v.BoundPruned))
	}
	if v.ProbeConfigs != 0 {
		e.b = append(e.b, `,"probe_configs":`...)
		e.int(int64(v.ProbeConfigs))
	}
	if v.Killed != 0 {
		e.b = append(e.b, `,"killed":`...)
		e.int(int64(v.Killed))
	}
	e.b = append(e.b, `,"waves":`...)
	e.int(int64(v.Waves))
	e.b = append(e.b, `,"max_q_size":`...)
	e.int(int64(v.MaxQSize))
	e.b = append(e.b, `,"elapsed_ns":`...)
	e.int(v.ElapsedNS)
	e.b = append(e.b, '}')
}

var searchStatsFields = []string{"configs", "pushed", "pruned", "bound_pruned", "probe_configs",
	"killed", "waves", "max_q_size", "elapsed_ns"}

func (d *decoder) searchStats(v *SearchStats) {
	for ok := d.object("SearchStats"); ok; ok = d.more() {
		switch d.key(searchStatsFields) {
		case "configs":
			d.int(&v.Configs)
		case "pushed":
			d.int(&v.Pushed)
		case "pruned":
			d.int(&v.Pruned)
		case "bound_pruned":
			d.int(&v.BoundPruned)
		case "probe_configs":
			d.int(&v.ProbeConfigs)
		case "killed":
			d.int(&v.Killed)
		case "waves":
			d.int(&v.Waves)
		case "max_q_size":
			d.int(&v.MaxQSize)
		case "elapsed_ns":
			d.int64(&v.ElapsedNS)
		default:
			d.skip()
		}
	}
}

func (e *encoder) routeResponse(v *RouteResponse) {
	e.b = append(e.b, `{"latency_ps":`...)
	e.float(v.LatencyPS)
	e.b = append(e.b, `,"source_delay_ps":`...)
	e.float(v.SourceDelayPS)
	if v.SlackPS != 0 {
		e.b = append(e.b, `,"slack_ps":`...)
		e.float(v.SlackPS)
	}
	e.b = append(e.b, `,"registers":`...)
	e.int(int64(v.Registers))
	e.b = append(e.b, `,"buffers":`...)
	e.int(int64(v.Buffers))
	e.b = append(e.b, `,"path":`...)
	array(e, v.Path, (*encoder).point)
	e.b = append(e.b, `,"gates":`...)
	array(e, v.Gates, (*encoder).stringElem)
	e.b = append(e.b, `,"stats":`...)
	e.searchStats(&v.Stats)
	if v.ProblemHash != "" {
		e.b = append(e.b, `,"problem_hash":`...)
		e.string(v.ProblemHash)
	}
	if v.Cached {
		e.b = append(e.b, `,"cached":true`...)
	}
	e.b = append(e.b, '}')
}

var routeResponseFields = []string{"latency_ps", "source_delay_ps", "slack_ps", "registers", "buffers",
	"path", "gates", "stats", "problem_hash", "cached"}

func (d *decoder) routeResponse(v *RouteResponse) {
	for ok := d.object("RouteResponse"); ok; ok = d.more() {
		switch d.key(routeResponseFields) {
		case "latency_ps":
			d.float(&v.LatencyPS)
		case "source_delay_ps":
			d.float(&v.SourceDelayPS)
		case "slack_ps":
			d.float(&v.SlackPS)
		case "registers":
			d.int(&v.Registers)
		case "buffers":
			d.int(&v.Buffers)
		case "path":
			slice(d, &v.Path, (*decoder).point, "[]Point")
		case "gates":
			slice(d, &v.Gates, (*decoder).string, "[]string")
		case "stats":
			d.searchStats(&v.Stats)
		case "problem_hash":
			d.string(&v.ProblemHash)
		case "cached":
			d.bool(&v.Cached)
		default:
			d.skip()
		}
	}
}

func (e *encoder) netResult(v *NetResult) {
	e.b = append(e.b, `{"name":`...)
	e.string(v.Name)
	if v.Mode != "" {
		e.b = append(e.b, `,"mode":`...)
		e.string(v.Mode)
	}
	if v.Error != "" {
		e.b = append(e.b, `,"error":`...)
		e.string(v.Error)
	}
	if v.LatencyPS != 0 {
		e.b = append(e.b, `,"latency_ps":`...)
		e.float(v.LatencyPS)
	}
	if v.SrcCycles != 0 {
		e.b = append(e.b, `,"src_cycles":`...)
		e.int(int64(v.SrcCycles))
	}
	if v.DstCycles != 0 {
		e.b = append(e.b, `,"dst_cycles":`...)
		e.int(int64(v.DstCycles))
	}
	if v.Registers != 0 {
		e.b = append(e.b, `,"registers":`...)
		e.int(int64(v.Registers))
	}
	if v.Buffers != 0 {
		e.b = append(e.b, `,"buffers":`...)
		e.int(int64(v.Buffers))
	}
	if v.WireMM != 0 {
		e.b = append(e.b, `,"wire_mm":`...)
		e.float(v.WireMM)
	}
	if v.WireWidth != 0 {
		e.b = append(e.b, `,"wire_width":`...)
		e.float(v.WireWidth)
	}
	if len(v.Path) > 0 {
		e.b = append(e.b, `,"path":`...)
		array(e, v.Path, (*encoder).point)
	}
	if len(v.Gates) > 0 {
		e.b = append(e.b, `,"gates":`...)
		array(e, v.Gates, (*encoder).stringElem)
	}
	if v.ElapsedNS != 0 {
		e.b = append(e.b, `,"elapsed_ns":`...)
		e.int(v.ElapsedNS)
	}
	if v.ProblemHash != "" {
		e.b = append(e.b, `,"problem_hash":`...)
		e.string(v.ProblemHash)
	}
	if v.Cached {
		e.b = append(e.b, `,"cached":true`...)
	}
	e.b = append(e.b, '}')
}

var netResultFields = []string{"name", "mode", "error", "latency_ps", "src_cycles", "dst_cycles",
	"registers", "buffers", "wire_mm", "wire_width", "path", "gates", "elapsed_ns", "problem_hash", "cached"}

func (d *decoder) netResult(v *NetResult) {
	for ok := d.object("NetResult"); ok; ok = d.more() {
		switch d.key(netResultFields) {
		case "name":
			d.string(&v.Name)
		case "mode":
			d.string(&v.Mode)
		case "error":
			d.string(&v.Error)
		case "latency_ps":
			d.float(&v.LatencyPS)
		case "src_cycles":
			d.int(&v.SrcCycles)
		case "dst_cycles":
			d.int(&v.DstCycles)
		case "registers":
			d.int(&v.Registers)
		case "buffers":
			d.int(&v.Buffers)
		case "wire_mm":
			d.float(&v.WireMM)
		case "wire_width":
			d.float(&v.WireWidth)
		case "path":
			slice(d, &v.Path, (*decoder).point, "[]Point")
		case "gates":
			slice(d, &v.Gates, (*decoder).string, "[]string")
		case "elapsed_ns":
			d.int64(&v.ElapsedNS)
		case "problem_hash":
			d.string(&v.ProblemHash)
		case "cached":
			d.bool(&v.Cached)
		default:
			d.skip()
		}
	}
}

func (e *encoder) planStats(v *PlanStats) {
	e.b = append(e.b, `{"workers":`...)
	e.int(int64(v.Workers))
	e.b = append(e.b, `,"nets_routed":`...)
	e.int(int64(v.NetsRouted))
	e.b = append(e.b, `,"nets_failed":`...)
	e.int(int64(v.NetsFailed))
	e.b = append(e.b, `,"total_configs":`...)
	e.int(int64(v.TotalConfigs))
	e.b = append(e.b, `,"total_pushed":`...)
	e.int(int64(v.TotalPushed))
	e.b = append(e.b, `,"total_pruned":`...)
	e.int(int64(v.TotalPruned))
	if v.TotalBoundPruned != 0 {
		e.b = append(e.b, `,"total_bound_pruned":`...)
		e.int(int64(v.TotalBoundPruned))
	}
	if v.TotalProbeConfigs != 0 {
		e.b = append(e.b, `,"total_probe_configs":`...)
		e.int(int64(v.TotalProbeConfigs))
	}
	e.b = append(e.b, `,"total_waves":`...)
	e.int(int64(v.TotalWaves))
	e.b = append(e.b, `,"max_q_size":`...)
	e.int(int64(v.MaxQSize))
	e.b = append(e.b, `,"elapsed_ns":`...)
	e.int(v.ElapsedNS)
	e.b = append(e.b, '}')
}

var planStatsFields = []string{"workers", "nets_routed", "nets_failed", "total_configs", "total_pushed",
	"total_pruned", "total_bound_pruned", "total_probe_configs", "total_waves", "max_q_size", "elapsed_ns"}

func (d *decoder) planStats(v *PlanStats) {
	for ok := d.object("PlanStats"); ok; ok = d.more() {
		switch d.key(planStatsFields) {
		case "workers":
			d.int(&v.Workers)
		case "nets_routed":
			d.int(&v.NetsRouted)
		case "nets_failed":
			d.int(&v.NetsFailed)
		case "total_configs":
			d.int(&v.TotalConfigs)
		case "total_pushed":
			d.int(&v.TotalPushed)
		case "total_pruned":
			d.int(&v.TotalPruned)
		case "total_bound_pruned":
			d.int(&v.TotalBoundPruned)
		case "total_probe_configs":
			d.int(&v.TotalProbeConfigs)
		case "total_waves":
			d.int(&v.TotalWaves)
		case "max_q_size":
			d.int(&v.MaxQSize)
		case "elapsed_ns":
			d.int64(&v.ElapsedNS)
		default:
			d.skip()
		}
	}
}

func (e *encoder) planResponse(v *PlanResponse) {
	e.b = append(e.b, `{"nets":`...)
	array(e, v.Nets, (*encoder).netResult)
	e.b = append(e.b, `,"stats":`...)
	e.planStats(&v.Stats)
	e.b = append(e.b, '}')
}

var planResponseFields = []string{"nets", "stats"}

func (d *decoder) planResponse(v *PlanResponse) {
	for ok := d.object("PlanResponse"); ok; ok = d.more() {
		switch d.key(planResponseFields) {
		case "nets":
			slice(d, &v.Nets, (*decoder).netResult, "[]NetResult")
		case "stats":
			d.planStats(&v.Stats)
		default:
			d.skip()
		}
	}
}

func (e *encoder) planStreamTrailer(v *PlanStreamTrailer) {
	e.b = append(e.b, '{')
	if v.Stats != nil {
		e.key(`"stats":`)
		e.planStats(v.Stats)
	}
	if v.Error != "" {
		e.key(`"error":`)
		e.string(v.Error)
	}
	e.b = append(e.b, '}')
}

var planStreamTrailerFields = []string{"stats", "error"}

func (d *decoder) planStreamTrailer(v *PlanStreamTrailer) {
	for ok := d.object("PlanStreamTrailer"); ok; ok = d.more() {
		switch d.key(planStreamTrailerFields) {
		case "stats":
			pointer(d, &v.Stats, (*decoder).planStats)
		case "error":
			d.string(&v.Error)
		default:
			d.skip()
		}
	}
}

func (e *encoder) errorResponse(v *ErrorResponse) {
	e.b = append(e.b, `{"error":`...)
	e.string(v.Error)
	e.b = append(e.b, '}')
}

var errorResponseFields = []string{"error"}

func (d *decoder) errorResponse(v *ErrorResponse) {
	for ok := d.object("ErrorResponse"); ok; ok = d.more() {
		switch d.key(errorResponseFields) {
		case "error":
			d.string(&v.Error)
		default:
			d.skip()
		}
	}
}
