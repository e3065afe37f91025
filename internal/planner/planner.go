// Package planner implements the interconnect-planning use case of
// Section I: given a floorplan and a set of block-to-block nets, it routes
// every net with the appropriate algorithm (FastPath for delay estimation,
// RBP within one clock domain, GALS across domains), and produces the
// cycle-latency annotation report that feeds back into the RTL — "the
// RTL-level design description is updated to reflect the added latency
// associated with multicycle routing".
package planner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"text/tabwriter"
	"time"

	"clockroute/internal/candidate"
	"clockroute/internal/core"
	"clockroute/internal/elmore"
	"clockroute/internal/engine"
	"clockroute/internal/faultpoint"
	"clockroute/internal/floorplan"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/route"
	"clockroute/internal/tech"
	"clockroute/internal/telemetry"
)

// Mode identifies which algorithm routed a net.
type Mode string

// Routing modes.
const (
	ModeRBP  Mode = "rbp"  // single-clock registered routing
	ModeGALS Mode = "gals" // cross-domain routing through an MCFIFO
)

// NetSpec requests one point-to-point route.
type NetSpec struct {
	Name string
	Src  geom.Point
	Dst  geom.Point
	// SrcPeriodPS / DstPeriodPS are the clock periods at the two ends. When
	// equal, the net is routed with RBP at that period; when different,
	// with GALS.
	SrcPeriodPS float64
	DstPeriodPS float64
	// WireWidths, when non-empty, routes the net once per wire width
	// (multiples of the nominal width, see tech.WithWireWidth) and keeps
	// the best result — lowest latency, then fewest registers, then the
	// narrowest wire. Empty means the nominal width only.
	WireWidths []float64
}

// Endpoint describes a block port for NetBetween.
type Endpoint struct {
	Block string
	Side  floorplan.Side
}

// NetBetween builds a NetSpec connecting two block ports on fp. Block clock
// periods are taken from the floorplan; defaultPeriod substitutes for
// blocks clocked by the chip clock (PeriodPS == 0).
func NetBetween(fp *floorplan.Floorplan, name string, from, to Endpoint, defaultPeriod float64) (NetSpec, error) {
	if defaultPeriod <= 0 {
		return NetSpec{}, fmt.Errorf("planner: non-positive default period %g", defaultPeriod)
	}
	src, err := fp.Pin(from.Block, from.Side)
	if err != nil {
		return NetSpec{}, err
	}
	dst, err := fp.Pin(to.Block, to.Side)
	if err != nil {
		return NetSpec{}, err
	}
	period := func(blockName string) float64 {
		b, _ := fp.Block(blockName)
		if b.PeriodPS > 0 {
			return b.PeriodPS
		}
		return defaultPeriod
	}
	return NetSpec{
		Name: name, Src: src, Dst: dst,
		SrcPeriodPS: period(from.Block),
		DstPeriodPS: period(to.Block),
	}, nil
}

// NetResult is the planning outcome for one net.
type NetResult struct {
	Spec NetSpec
	Mode Mode
	// Err is non-nil when the net could not be routed; the other fields are
	// then zero. A contained panic is classified here as an error wrapping
	// core.ErrInternal (the concrete *core.InternalError carries the
	// panicking stack); an injected fault additionally matches
	// faultpoint.ErrInjected.
	Err error
	// Panicked reports that at least one routing attempt for this net died
	// in a contained panic — even when a retry then succeeded and Err is
	// nil.
	Panicked bool
	// Retried reports the net was re-run once on a fresh pooled scratch
	// after a panicked or injected-fault first attempt (the planner's
	// retry-once policy; see retryable).
	Retried bool

	Path      *route.Path
	LatencyPS float64
	// Cycles is the latency the RTL must absorb: source-clock cycles for
	// RBP nets; for GALS nets, source cycles before the FIFO plus
	// destination cycles after (reported separately).
	SrcCycles int
	DstCycles int
	Registers int
	Buffers   int
	WireMM    float64
	// Stats is the net's effort record, summed over every wire width that
	// returned a result; its MaxQSize is the largest peak among them.
	Stats core.Stats
	// Elapsed is this net's wall time, covering every wire width tried.
	Elapsed time.Duration
	// WireWidth is the chosen wire width multiple (1 = nominal).
	WireWidth float64
}

// PlanStats aggregates search effort across a whole plan, the batch
// counterpart of core.Stats.
type PlanStats struct {
	// Workers is the goroutine count the plan ran with (1 = serial).
	Workers int
	// TotalConfigs sums the configurations investigated across all nets.
	TotalConfigs int
	// TotalPushed / TotalPruned / TotalWaves sum the remaining effort
	// counters of every net's winning search. All Total* sums are
	// schedule-independent: a parallel run reports exactly the serial sums.
	TotalPushed int
	TotalPruned int
	// TotalBoundPruned sums candidates cut by the admissible search bounds;
	// TotalProbeConfigs sums the incumbent probes' extra effort (kept out
	// of TotalConfigs so Table-I comparisons keep their meaning).
	TotalBoundPruned  int
	TotalProbeConfigs int
	TotalWaves        int
	// MaxQSize is the largest per-net peak queue size.
	MaxQSize int
	// NetsRouted / NetsFailed split the nets by outcome.
	NetsRouted int
	NetsFailed int
	// NetsPanicked counts nets with at least one contained-panic attempt;
	// NetsRetried counts nets re-run under the retry-once policy. A net
	// that panicked and then routed cleanly on retry appears in NetsRouted,
	// NetsPanicked, and NetsRetried at once.
	NetsPanicked int
	NetsRetried  int
	// Elapsed is the wall time of the whole plan; with workers > 1 it is
	// less than the sum of the per-net Elapsed times.
	Elapsed time.Duration
}

// add folds one net result into the aggregate.
func (s *PlanStats) add(n *NetResult) {
	if n.Err != nil {
		s.NetsFailed++
	} else {
		s.NetsRouted++
	}
	if n.Panicked {
		s.NetsPanicked++
	}
	if n.Retried {
		s.NetsRetried++
	}
	s.TotalConfigs += n.Stats.Configs
	s.TotalPushed += n.Stats.Pushed
	s.TotalPruned += n.Stats.Pruned
	s.TotalBoundPruned += n.Stats.BoundPruned
	s.TotalProbeConfigs += n.Stats.ProbeConfigs
	s.TotalWaves += n.Stats.Waves
	s.MaxQSize = max(s.MaxQSize, n.Stats.MaxQSize)
}

// Plan is the set of routed nets over one floorplan.
type Plan struct {
	Floorplan *floorplan.Floorplan
	Grid      *grid.Grid
	Model     *elmore.Model
	Nets      []NetResult
	Stats     PlanStats
}

// Planner routes nets over a fixed floorplan and technology. It holds
// only its inputs — floorplan, grid, nominal delay model, technology and
// options — and every search reads them without writing, so one Planner
// may route many nets concurrently (see RunStream).
type Planner struct {
	fp   *floorplan.Floorplan
	g    *grid.Grid
	m    *elmore.Model
	tc   *tech.Tech
	opts core.Options
}

// New builds a planner. The floorplan's blockages are materialized once and
// shared by every net (each net is routed independently, as in the paper's
// single-net formulation).
func New(fp *floorplan.Floorplan, tc *tech.Tech, opts core.Options) (*Planner, error) {
	g, err := fp.BuildGrid()
	if err != nil {
		return nil, err
	}
	m, err := elmore.NewModel(tc, fp.PitchMM)
	if err != nil {
		return nil, err
	}
	return &Planner{fp: fp, g: g, m: m, tc: tc, opts: opts}, nil
}

// NewFromGrid builds a planner over an already-materialized grid (e.g. one
// built from a /v1/plan request's GridSpec) instead of a floorplan. NetBetween
// is unavailable without a floorplan; use explicit NetSpec coordinates.
func NewFromGrid(g *grid.Grid, tc *tech.Tech, opts core.Options) (*Planner, error) {
	if g == nil {
		return nil, errors.New("planner: nil grid")
	}
	m, err := elmore.NewModel(tc, g.PitchMM())
	if err != nil {
		return nil, err
	}
	return &Planner{g: g, m: m, tc: tc, opts: opts}, nil
}

// Grid exposes the materialized routing grid (read-only by convention).
func (pl *Planner) Grid() *grid.Grid { return pl.g }

// Floorplan exposes the floorplan the planner was built from; nil when the
// planner came from NewFromGrid.
func (pl *Planner) Floorplan() *floorplan.Floorplan { return pl.fp }

// Model exposes the bound delay model.
func (pl *Planner) Model() *elmore.Model { return pl.m }

// modelForWidth returns the delay model at the given wire width multiple:
// the planner's nominal model at width 1, else one built for this search.
// The search core keys its cached curves by a model's electrical values,
// so a rebuilt model still finds the curves an earlier one grew.
func (pl *Planner) modelForWidth(width float64) (*elmore.Model, error) {
	if width == 1 {
		return pl.m, nil
	}
	wtech, err := pl.tc.WithWireWidth(width)
	if err != nil {
		return nil, err
	}
	return elmore.NewModel(wtech, pl.g.PitchMM())
}

// RouteNet routes a single net, choosing RBP or GALS from the endpoint
// periods, and independently verifies the result before reporting it. When
// the spec lists wire widths, every width is tried and the best kept.
func (pl *Planner) RouteNet(spec NetSpec) NetResult {
	return pl.routeNet(context.Background(), spec, pl.opts)
}

// routeNet routes one net with an explicit option set — the batch engine
// clones the planner's options per net to label telemetry with the net
// name and worker index without mutating shared state.
//
// Retry-once policy: when the whole width pass fails with a contained
// panic or an injected fault, the net is re-run exactly once. The first
// attempt's scratch was quarantined at the containment boundary, so the
// retry runs on a fresh pooled scratch; deterministic failures (ErrNoPath,
// aborts, validation) are never retried, and a second panicked attempt is
// reported as the net's failure.
func (pl *Planner) routeNet(ctx context.Context, spec NetSpec, opts core.Options) NetResult {
	start := time.Now()
	best := pl.routeNetWidths(ctx, spec, opts)
	if best.Err != nil && retryable(best.Err) && ctx.Err() == nil {
		panicked := best.Panicked
		best = pl.routeNetWidths(ctx, spec, opts)
		best.Panicked = best.Panicked || panicked
		best.Retried = true
	}
	best.Elapsed = time.Since(start)
	return best
}

// retryable reports whether err warrants the planner's single retry: a
// contained panic (the scratch was quarantined, a fresh one may well
// succeed) or an injected faultpoint error (transient by construction).
func retryable(err error) bool {
	return errors.Is(err, core.ErrInternal) || errors.Is(err, faultpoint.ErrInjected)
}

// routeNetWidths runs one attempt over the spec's width ladder, keeping
// the best feasible result. The kept result's Stats cover every width
// that returned a result, the losing searches included, with MaxQSize
// the largest peak among them.
func (pl *Planner) routeNetWidths(ctx context.Context, spec NetSpec, opts core.Options) NetResult {
	widths := spec.WireWidths
	if len(widths) == 0 {
		widths = []float64{1}
	}
	best := NetResult{Spec: spec, Err: fmt.Errorf("planner: net %q: no widths", spec.Name)}
	panicked := false
	var effort core.Stats
	for _, w := range widths {
		res := pl.routeNetAtWidth(ctx, spec, w, opts)
		panicked = panicked || res.Panicked
		if res.Err != nil {
			if best.Err != nil {
				best = res
			}
			continue
		}
		addEffort(&effort, &res.Stats)
		if best.Err != nil ||
			res.LatencyPS < best.LatencyPS ||
			(res.LatencyPS == best.LatencyPS && res.Registers < best.Registers) ||
			(res.LatencyPS == best.LatencyPS && res.Registers == best.Registers && res.WireWidth < best.WireWidth) {
			best = res
		}
	}
	if best.Err == nil {
		best.Stats = effort
	}
	best.Panicked = panicked
	return best
}

// addEffort adds one search's effort to a net's running total.
func addEffort(sum, s *core.Stats) {
	sum.Configs += s.Configs
	sum.Pushed += s.Pushed
	sum.Pruned += s.Pruned
	sum.Killed += s.Killed
	sum.Waves += s.Waves
	sum.MaxQSize = max(sum.MaxQSize, s.MaxQSize)
	sum.Elapsed += s.Elapsed
	sum.BoundPruned += s.BoundPruned
	sum.ProbeConfigs += s.ProbeConfigs
}

func (pl *Planner) routeNetAtWidth(ctx context.Context, spec NetSpec, width float64, opts core.Options) NetResult {
	out := NetResult{Spec: spec, WireWidth: width}
	if spec.SrcPeriodPS <= 0 || spec.DstPeriodPS <= 0 {
		out.Err = fmt.Errorf("planner: net %q: non-positive period", spec.Name)
		return out
	}
	if !pl.g.InBounds(spec.Src) || !pl.g.InBounds(spec.Dst) {
		out.Err = fmt.Errorf("planner: net %q: endpoint off the die", spec.Name)
		return out
	}
	m, err := pl.modelForWidth(width)
	if err != nil {
		out.Err = fmt.Errorf("planner: net %q: %w", spec.Name, err)
		return out
	}
	prob, err := core.NewProblem(pl.g, m, pl.g.ID(spec.Src), pl.g.ID(spec.Dst))
	if err != nil {
		out.Err = fmt.Errorf("planner: net %q: %w", spec.Name, err)
		return out
	}

	req := core.Request{Options: opts}
	if spec.SrcPeriodPS == spec.DstPeriodPS {
		out.Mode = ModeRBP
		req.Kind, req.PeriodPS = core.KindRBP, spec.SrcPeriodPS
	} else {
		out.Mode = ModeGALS
		req.Kind = core.KindGALS
		req.SrcPeriodPS, req.DstPeriodPS = spec.SrcPeriodPS, spec.DstPeriodPS
	}
	res, err := core.Route(ctx, prob, req)
	if err == nil {
		if out.Mode == ModeRBP {
			_, err = route.VerifySingleClock(res.Path, pl.g, m, spec.SrcPeriodPS)
		} else {
			_, err = route.VerifyMultiClock(res.Path, pl.g, m, spec.SrcPeriodPS, spec.DstPeriodPS)
		}
	}
	if err != nil {
		out.Err = fmt.Errorf("planner: net %q: %w", spec.Name, err)
		out.Panicked = errors.Is(err, core.ErrInternal)
		return out
	}

	out.Path = res.Path
	out.LatencyPS = res.Latency
	out.Registers = res.Registers
	out.Buffers = res.Buffers
	out.WireMM = float64(res.Path.Len()) * pl.g.PitchMM()
	out.Stats = res.Stats
	if out.Mode == ModeRBP {
		out.SrcCycles = res.Registers + 1
		out.DstCycles = 0
	} else {
		out.SrcCycles = res.RegS + 1
		out.DstCycles = res.RegT + 1
	}
	return out
}

// PlanNets routes every net and returns the combined plan. Per-net failures
// are recorded in the results, not returned: planning a chip with one
// unroutable net still reports the other nets. Nets are routed
// independently on the shared grid (the paper's single-net formulation);
// see PlanNetsExclusive for congestion-aware planning and RunParallel for
// the concurrent batch engine. PlanNets is RunParallel with one worker.
func (pl *Planner) PlanNets(specs []NetSpec) (*Plan, error) {
	return pl.RunParallel(context.Background(), 1, specs)
}

// RunParallel routes every net concurrently across up to `workers`
// goroutines (<= 0 selects GOMAXPROCS) over the shared read-only grid and
// delay model. The results are bit-identical to a serial PlanNets run:
// each net's search is an independent deterministic dynamic program, so
// scheduling cannot change its outcome. The context's deadline and
// cancellation abort in-flight and pending searches promptly; aborted nets
// record an error wrapping core.ErrAborted. Tracing and telemetry follow
// RunStream.
func (pl *Planner) RunParallel(ctx context.Context, workers int, specs []NetSpec) (*Plan, error) {
	return pl.runSlice(ctx, workers, specs, func(*NetResult) {})
}

// runSlice is RunStream over a slice: the specs are validated up front
// (no nets, an empty or a duplicate name fail the whole call before
// anything routes, as RunStream's precondition asks), each result is
// handed to routed as it is emitted, and the plan lists the results in
// spec order.
func (pl *Planner) runSlice(ctx context.Context, workers int, specs []NetSpec, routed func(*NetResult)) (*Plan, error) {
	if err := validateSpecs(specs); err != nil {
		return nil, err
	}
	in := make(chan NetSpec, len(specs))
	at := make(map[string]int, len(specs)) // names are unique once validated
	for i, s := range specs {
		in <- s
		at[s.Name] = i
	}
	close(in)
	nets := make([]NetResult, len(specs))
	stats := pl.RunStream(ctx, engine.Workers(workers, len(specs)), in, func(res NetResult) {
		routed(&res)
		nets[at[res.Spec.Name]] = res
	})
	return &Plan{Floorplan: pl.fp, Grid: pl.g, Model: pl.m, Nets: nets, Stats: stats}, nil
}

// traceNet wraps one net's trip through the batch engine in its span
// events — net_start with the claiming worker, net_end with the net's
// effort summed over its wire widths and its failure cause — with the
// plan's sink relabeled so every event the net's searches emit carries
// the net and worker, and the worker goroutine pprof-labeled with the net
// and algorithm (joining any request_id label already riding ctx) so CPU
// profiles break search time down per net. Every net the engine takes in
// is started and ended once; only a panic that escapes the net to the
// engine's boundary skips its net_end.
func (pl *Planner) traceNet(ctx context.Context, spec NetSpec, opts core.Options, worker int) NetResult {
	netSink := telemetry.WithFields(opts.Telemetry, spec.Name, worker)
	opts.Telemetry = netSink
	netSink.Emit(telemetry.Event{Kind: telemetry.EventNetStart, TimeNS: telemetry.Now()})
	algo := string(ModeRBP)
	if spec.SrcPeriodPS != spec.DstPeriodPS {
		algo = string(ModeGALS)
	}
	var res NetResult
	pprof.Do(ctx, pprof.Labels("net", spec.Name, "algo", algo), func(ctx context.Context) {
		res = pl.routeNet(ctx, spec, opts)
	})
	end := telemetry.Event{
		Kind: telemetry.EventNetEnd, TimeNS: telemetry.Now(),
		Algo:         string(res.Mode),
		LatencyPS:    res.LatencyPS,
		Configs:      res.Stats.Configs,
		Pushed:       res.Stats.Pushed,
		Pruned:       res.Stats.Pruned,
		BoundPruned:  res.Stats.BoundPruned,
		ProbeConfigs: res.Stats.ProbeConfigs,
		Waves:        res.Stats.Waves,
		MaxQSize:     res.Stats.MaxQSize,
		ElapsedNS:    res.Elapsed.Nanoseconds(),
	}
	if res.Err != nil {
		end.Err = res.Err.Error()
	}
	netSink.Emit(end)
	return res
}

// PlanNetsExclusive routes the nets in order on a private copy of the grid,
// reserving each successful route's resources before the next net runs:
// its grid edges become unavailable (the tracks are taken) and its element
// sites become obstacles. Later nets therefore detour around earlier ones —
// a simple sequential congestion model. Net ordering matters (callers
// typically sort by criticality), so this path is inherently serial: it
// runs RunStream with one worker, whose emit reserves each routed path
// before the worker takes the next net. Panic containment, net spans and
// the stats follow RunStream. A failed net whose source or sink an
// earlier net's element took has that endpoint and net named in its error.
func (pl *Planner) PlanNetsExclusive(specs []NetSpec) (*Plan, error) {
	work := &Planner{fp: pl.fp, g: pl.g.Clone(), m: pl.m, tc: pl.tc, opts: pl.opts}
	held := make(map[int]string) // node -> the net whose element made it an obstacle
	return work.runSlice(context.Background(), 1, specs, func(res *NetResult) {
		if res.Err == nil {
			reserve(work.g, res.Path, res.Spec.Name, held)
			return
		}
		for _, pt := range [2]geom.Point{res.Spec.Src, res.Spec.Dst} {
			if !work.g.InBounds(pt) {
				continue
			}
			if net, ok := held[work.g.ID(pt)]; ok {
				res.Err = fmt.Errorf("%w (endpoint %v is held by net %q)", res.Err, pt, net)
				return
			}
		}
	})
}

// validateSpecs rejects structurally bad net lists before any routing runs.
func validateSpecs(specs []NetSpec) error {
	if len(specs) == 0 {
		return errors.New("planner: no nets")
	}
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if s.Name == "" {
			return errors.New("planner: net with empty name")
		}
		if seen[s.Name] {
			return fmt.Errorf("planner: duplicate net name %q", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// reserve removes net's routed path's resources from g: every edge the
// path uses is cut, and every node carrying an inserted element (or an
// endpoint register) becomes an obstacle, recorded in held as net's.
func reserve(g *grid.Grid, p *route.Path, net string, held map[int]string) {
	for i := 1; i < len(p.Nodes); i++ {
		u, v := p.Nodes[i-1], p.Nodes[i]
		for d := grid.East; d <= grid.South; d++ {
			if nb, ok := g.Neighbor(u, d); ok && nb == v {
				g.CutEdge(u, d)
			}
		}
	}
	for i, gate := range p.Gates {
		if gate != candidate.GateNone {
			pt := g.At(p.Nodes[i])
			g.AddObstacle(geom.Rect{MinX: pt.X, MinY: pt.Y, MaxX: pt.X + 1, MaxY: pt.Y + 1})
			held[p.Nodes[i]] = net
		}
	}
}

// Failed returns the nets that could not be routed.
func (p *Plan) Failed() []NetResult {
	var out []NetResult
	for _, n := range p.Nets {
		if n.Err != nil {
			out = append(out, n)
		}
	}
	return out
}

// TotalWireMM sums the routed wirelength of all successful nets.
func (p *Plan) TotalWireMM() float64 {
	sum := 0.0
	for _, n := range p.Nets {
		if n.Err == nil {
			sum += n.WireMM
		}
	}
	return sum
}

// WriteReport renders the latency annotation table: one row per net with
// the cycle counts the RTL description must absorb. Rows are sorted by
// descending latency so the communication bottlenecks lead.
func (p *Plan) WriteReport(w io.Writer) error {
	nets := append([]NetResult(nil), p.Nets...)
	sort.SliceStable(nets, func(i, j int) bool { return nets[i].LatencyPS > nets[j].LatencyPS })

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NET\tMODE\tSRC\tDST\tLATENCY(ps)\tSRC-CYCLES\tDST-CYCLES\tREGS\tBUFS\tWIRE(mm)\tSTATUS")
	for _, n := range nets {
		if n.Err != nil {
			fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t-\t-\t-\t-\t-\t-\tFAILED: %v\n",
				n.Spec.Name, n.Mode, n.Spec.Src, n.Spec.Dst, n.Err)
			continue
		}
		dst := "-"
		if n.Mode == ModeGALS {
			dst = fmt.Sprintf("%d", n.DstCycles)
		}
		fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t%.0f\t%d\t%s\t%d\t%d\t%.2f\tok\n",
			n.Spec.Name, n.Mode, n.Spec.Src, n.Spec.Dst, n.LatencyPS,
			n.SrcCycles, dst, n.Registers, n.Buffers, n.WireMM)
	}
	return tw.Flush()
}
