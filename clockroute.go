// Package clockroute is a library for optimal path routing in single- and
// multiple-clock domain systems-on-chip, reproducing Hassoun & Alpert,
// "Optimal Path Routing in Single- and Multiple-Clock Domain Systems"
// (IEEE TCAD, 2003).
//
// It finds source-to-sink routes on a grid over the chip while
// simultaneously inserting buffers and synchronization elements:
//
//   - FastPath — minimum Elmore-delay buffered routing (the Zhou et al.
//     baseline the paper builds on);
//   - RBP — minimum cycle-latency routing with registers for a single clock
//     domain: every register-to-register segment meets the clock period;
//   - GALS — minimum-latency routing between two clock domains through a
//     mixed-clock FIFO, with relay stations on both sides.
//
// All three are optimal polynomial-time dynamic programs. The package also
// provides the surrounding system: technology/delay models, floorplan-driven
// blockage maps, an interconnect planner producing RTL latency annotations,
// a cycle-accurate behavioral simulation of the MCFIFO/relay-station
// substrate, and an experiment harness regenerating the paper's tables.
//
// # Quick start
//
//	g := clockroute.NewGrid(201, 201, 0.125)          // 25 mm die
//	g.AddObstacle(clockroute.R(40, 40, 80, 80))        // an IP macro
//	tech := clockroute.DefaultTech()                   // calibrated 0.07 µm
//	prob, _ := clockroute.NewProblem(g, tech, clockroute.Pt(20, 20), clockroute.Pt(180, 180))
//	res, _ := clockroute.RBP(prob, 500 /*ps*/, clockroute.Options{})
//	fmt.Println(res.Latency, res.Registers, res.Path)
//
// # Unified Route API
//
// The three algorithms share one context-aware entry point. A Request
// selects the algorithm by Kind and carries its clock parameters; Route
// threads the context's deadline and cancellation into the search's
// wavefront loops, so a routing call can be time-bounded:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
//	defer cancel()
//	res, err := clockroute.Route(ctx, prob, clockroute.Request{
//		Kind: clockroute.KindRBP, PeriodPS: 500,
//	})
//	if errors.Is(err, clockroute.ErrAborted) { /* ran out of time, not infeasible */ }
//
// FastPath, RBP, and GALS remain as thin context-free wrappers over Route.
// An aborted search — context cancellation, Options.Deadline, the
// Options.Abort hook, or the Options.MaxConfigs budget — reports
// ErrAborted, distinct from ErrNoPath's genuine infeasibility.
//
// # Concurrency
//
// Grids, delay models, and Problems are read-only during a search, so any
// number of searches may run concurrently over shared inputs. The Planner
// exploits this: Planner.RunParallel routes a batch of nets across a
// worker pool with results bit-identical to the serial run. See the
// "Concurrency model" section of DESIGN.md.
//
// See the examples directory for runnable scenarios.
package clockroute

import (
	"context"
	"io"

	"clockroute/internal/candidate"
	"clockroute/internal/core"
	"clockroute/internal/elmore"
	"clockroute/internal/floorplan"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/latch"
	"clockroute/internal/mcfifo"
	"clockroute/internal/planner"
	"clockroute/internal/route"
	"clockroute/internal/tech"
	"clockroute/internal/telemetry"
	"clockroute/internal/wavefront"
)

// Core geometry and grid types.
type (
	// Point is an integer grid coordinate.
	Point = geom.Point
	// Rect is a half-open rectangle of grid points.
	Rect = geom.Rect
	// Grid is the routing graph with blockage maps.
	Grid = grid.Grid
)

// Technology and delay modeling.
type (
	// Tech bundles the wire RC model and the element library.
	Tech = tech.Tech
	// Element is the switch-level model of a buffer, register, or MCFIFO.
	Element = tech.Element
	// Model evaluates Elmore delays for a technology at a grid pitch.
	Model = elmore.Model
)

// Routing problem and results.
type (
	// Problem is a routing instance: grid, model, source, sink.
	Problem = core.Problem
	// Options tunes a search run; the zero value is the published setup.
	Options = core.Options
	// Result is a routing outcome with its statistics.
	Result = core.Result
	// Stats records search effort (configurations, queue sizes, time).
	Stats = core.Stats
	// Path is the routed node sequence with its element labeling.
	Path = route.Path
	// Gate labels one inserted element on a path.
	Gate = candidate.Gate
	// Tracer observes wavefront expansion (see wavefront.Recorder).
	Tracer = core.Tracer
	// Request selects an algorithm and its parameters for Route.
	Request = core.Request
	// RouteKind identifies one of the three algorithms in a Request.
	RouteKind = core.Kind
)

// Request kinds for the unified Route call.
const (
	// KindFastPath is minimum-delay buffered routing (no registers).
	KindFastPath = core.KindFastPath
	// KindRBP is single-clock registered-buffered routing.
	KindRBP = core.KindRBP
	// KindGALS is cross-domain routing through one mixed-clock FIFO.
	KindGALS = core.KindGALS
)

// System-level components.
type (
	// Floorplan places IP blocks whose shadows become routing blockages.
	Floorplan = floorplan.Floorplan
	// Block is one floorplan component.
	Block = floorplan.Block
	// Planner routes block-to-block nets over a floorplan.
	Planner = planner.Planner
	// NetSpec requests one point-to-point net.
	NetSpec = planner.NetSpec
	// Plan is a set of routed nets with a latency report.
	Plan = planner.Plan
	// PlanStats aggregates search effort across a plan's nets.
	PlanStats = planner.PlanStats
	// FIFOChannel simulates the MCFIFO/relay-station substrate.
	FIFOChannel = mcfifo.Channel
	// FIFOConfig configures a FIFOChannel.
	FIFOConfig = mcfifo.Config
	// WavefrontRecorder records expansion waves for visualization.
	WavefrontRecorder = wavefront.Recorder
)

// ErrNoPath is returned when no feasible routing solution exists.
var ErrNoPath = core.ErrNoPath

// ErrAborted is returned when a search stops before exhausting its space —
// context cancellation, a passed Options.Deadline, the Options.Abort hook,
// or the Options.MaxConfigs budget. Use errors.Is to distinguish it from
// ErrNoPath: an aborted search says nothing about feasibility.
var ErrAborted = core.ErrAborted

// ErrInternal is returned when a search died in a contained panic (a bug
// or an injected fault): the search's pooled scratch was quarantined and
// the process kept running. The concrete *core.InternalError in the chain
// carries the panicking stack. Like ErrAborted, it says nothing about
// feasibility — the planner retries such nets once on a fresh scratch.
var ErrInternal = core.ErrInternal

// Pt is shorthand for Point{x, y}.
func Pt(x, y int) Point { return geom.Pt(x, y) }

// R builds a Rect from two corners in any order.
func R(x0, y0, x1, y1 int) Rect { return geom.R(x0, y0, x1, y1) }

// NewGrid returns an open w×h routing grid with the given pitch in mm.
// It panics on invalid dimensions; use grid sizes of at least 2×1 and a
// positive pitch.
func NewGrid(w, h int, pitchMM float64) *Grid { return grid.MustNew(w, h, pitchMM) }

// DefaultTech returns the calibrated 0.07 µm technology of the paper's
// experiments (Cong–Pan estimates; see DESIGN.md for the calibration).
func DefaultTech() *Tech { return tech.CongPan70nm() }

// NewProblem builds a routing instance on g between the source and sink
// grid points, deriving the delay model from tc at g's pitch.
func NewProblem(g *Grid, tc *Tech, src, dst Point) (*Problem, error) {
	m, err := elmore.NewModel(tc, g.PitchMM())
	if err != nil {
		return nil, err
	}
	return core.NewProblem(g, m, g.ID(src), g.ID(dst))
}

// Route runs the algorithm selected by req on p, threading ctx's deadline
// and cancellation into the search loops (see ErrAborted). It is the
// unified entry point behind FastPath, RBP, and GALS.
func Route(ctx context.Context, p *Problem, req Request) (*Result, error) {
	return core.Route(ctx, p, req)
}

// FastPath finds the minimum-delay buffered path (no registers).
func FastPath(p *Problem, opts Options) (*Result, error) {
	return core.Route(context.Background(), p, Request{Kind: KindFastPath, Options: opts})
}

// RBP finds the minimum cycle-latency registered-buffered path for a single
// clock domain with period T (in ps).
func RBP(p *Problem, T float64, opts Options) (*Result, error) {
	return core.Route(context.Background(), p, Request{Kind: KindRBP, PeriodPS: T, Options: opts})
}

// RBPArrayQueues is RBP's array-of-queues variant (identical results).
func RBPArrayQueues(p *Problem, T float64, opts Options) (*Result, error) {
	return core.Route(context.Background(), p,
		Request{Kind: KindRBP, PeriodPS: T, ArrayQueues: true, Options: opts})
}

// GALS finds the minimum-latency path between a source clocked at Ts and a
// sink clocked at Tt, inserting exactly one mixed-clock FIFO.
func GALS(p *Problem, Ts, Tt float64, opts Options) (*Result, error) {
	return core.Route(context.Background(), p,
		Request{Kind: KindGALS, SrcPeriodPS: Ts, DstPeriodPS: Tt, Options: opts})
}

// RoutePlanContext routes every net of specs over pl's floorplan with up to
// `workers` concurrent searches (<= 0 selects GOMAXPROCS), honoring ctx's
// deadline and cancellation per net. Results keep the order of specs and
// match a serial Planner.PlanNets run exactly; see Planner.RunParallel.
func RoutePlanContext(ctx context.Context, pl *Planner, specs []NetSpec, workers int) (*Plan, error) {
	return pl.RunParallel(ctx, workers, specs)
}

// LatchResult reports a transparent-latch route (the latch-based routing
// extension; see internal/latch).
type LatchResult = latch.Result

// LatchRoute finds the minimum-latency buffered path synchronized with
// two-phase transparent latches instead of registers, exploiting time
// borrowing. maxCycles bounds the latency search (0 = default).
func LatchRoute(p *Problem, T float64, maxCycles int, opts Options) (*LatchResult, error) {
	return latch.Route(p, T, maxCycles, opts)
}

// VerifyLatch independently re-checks a latch route by forward simulation
// of the transparency windows.
func VerifyLatch(p *Path, g *Grid, tc *Tech, T float64, cycles int) error {
	m, err := elmore.NewModel(tc, g.PitchMM())
	if err != nil {
		return err
	}
	return latch.Verify(p, g, m, T, cycles)
}

// VerifySingleClock independently re-checks an RBP result against the grid
// and period, returning the verified cycle latency.
func VerifySingleClock(p *Path, g *Grid, tc *Tech, T float64) (float64, error) {
	m, err := elmore.NewModel(tc, g.PitchMM())
	if err != nil {
		return 0, err
	}
	return route.VerifySingleClock(p, g, m, T)
}

// VerifyMultiClock independently re-checks a GALS result, returning the
// verified total latency.
func VerifyMultiClock(p *Path, g *Grid, tc *Tech, Ts, Tt float64) (float64, error) {
	m, err := elmore.NewModel(tc, g.PitchMM())
	if err != nil {
		return 0, err
	}
	return route.VerifyMultiClock(p, g, m, Ts, Tt)
}

// NewPlanner builds an interconnect planner over a floorplan.
func NewPlanner(fp *Floorplan, tc *Tech, opts Options) (*Planner, error) {
	return planner.New(fp, tc, opts)
}

// NetBetween builds a NetSpec connecting two block ports, inferring clock
// periods from the floorplan (defaultPeriod for chip-clocked blocks).
func NetBetween(fp *Floorplan, name string, fromBlock string, fromSide BlockSide,
	toBlock string, toSide BlockSide, defaultPeriod float64) (NetSpec, error) {
	return planner.NetBetween(fp, name,
		planner.Endpoint{Block: fromBlock, Side: fromSide},
		planner.Endpoint{Block: toBlock, Side: toSide}, defaultPeriod)
}

// BlockSide selects a block boundary for pin placement.
type BlockSide = floorplan.Side

// Block boundary sides.
const (
	SideEast  = floorplan.SideEast
	SideWest  = floorplan.SideWest
	SideNorth = floorplan.SideNorth
	SideSouth = floorplan.SideSouth
)

// Floorplan block kinds.
const (
	// HardIP blocks gate insertion; wires may pass over.
	HardIP = floorplan.HardIP
	// WiringDense blocks routing entirely.
	WiringDense = floorplan.WiringDense
	// ClockQuiet forbids clocked elements only.
	ClockQuiet = floorplan.ClockQuiet
)

// SoC25mm returns the paper's 25×25 mm experimental die with a
// representative set of IP blocks at the given grid pitch.
func SoC25mm(pitchMM float64) (*Floorplan, error) { return floorplan.SoC25mm(pitchMM) }

// RandomFloorplan generates a seeded random floorplan with n blocks.
func RandomFloorplan(seed int64, gridW, gridH int, pitchMM float64, n int) (*Floorplan, error) {
	return floorplan.Random(seed, gridW, gridH, pitchMM, n)
}

// NewFIFOChannel builds a behavioral mixed-clock channel simulation.
func NewFIFOChannel(cfg FIFOConfig) (*FIFOChannel, error) { return mcfifo.New(cfg) }

// FIFOFromResult derives the channel configuration that a GALS routing
// result implies: its per-side relay-station counts and the two periods.
func FIFOFromResult(res *Result, Ts, Tt float64, depth int) (FIFOConfig, error) {
	if res == nil || res.Path == nil || res.Path.FIFOIndex() < 0 {
		return FIFOConfig{}, ErrNoPath
	}
	regS, regT := res.Path.RegistersBySide()
	cfg := FIFOConfig{
		Ts: Ts, Tt: Tt,
		SenderStations:   regS,
		ReceiverStations: regT,
		FIFODepth:        depth,
	}
	return cfg, cfg.Validate()
}

// NewWavefrontRecorder builds a tracer that records which wave first
// reached every node; pass it via Options.Trace and render with its
// Render/Summary methods.
func NewWavefrontRecorder(g *Grid) *WavefrontRecorder { return wavefront.NewRecorder(g) }

// Observability. Options.Telemetry accepts any TelemetrySink; the sinks
// below compose with Route, Planner.RunParallel, and routed's
// -metrics-addr endpoints. See the "Observability" section of DESIGN.md
// for the event schema and metric names.
type (
	// TelemetrySink receives structured span events (searches, wavefronts,
	// batch nets). Implementations must be goroutine-safe.
	TelemetrySink = telemetry.Sink
	// TelemetryEvent is one record of the trace stream.
	TelemetryEvent = telemetry.Event
	// TelemetryEventKind discriminates trace events.
	TelemetryEventKind = telemetry.EventKind
	// Metrics is the atomic registry of routing counters; it is itself a
	// TelemetrySink, rendered as Prometheus text on /metrics.
	Metrics = telemetry.Metrics
	// ProgressTracker is a TelemetrySink maintaining an in-flight-net
	// snapshot (the /progress endpoint payload).
	ProgressTracker = telemetry.Progress
)

// NewJSONLSink returns a sink writing one JSON event per line to w,
// sequence-numbered in emission order.
func NewJSONLSink(w io.Writer) *telemetry.JSONL { return telemetry.NewJSONL(w) }

// NewRingSink returns a sink retaining the last n events for post-mortem
// dumps.
func NewRingSink(n int) *telemetry.Ring { return telemetry.NewRing(n) }

// MultiSink broadcasts every event to all given sinks, skipping nils.
func MultiSink(sinks ...TelemetrySink) TelemetrySink { return telemetry.Multi(sinks...) }

// NewMetrics builds an empty metrics registry.
func NewMetrics() *Metrics { return telemetry.NewMetrics() }

// DefaultMetrics returns the process-wide registry, created on first use;
// routed's /metrics endpoint renders it.
func DefaultMetrics() *Metrics { return telemetry.Default() }

// SynchronizedTracer wraps a Tracer so it can be shared across concurrent
// searches (see the Tracer concurrency contract in Options.Trace).
func SynchronizedTracer(t Tracer) Tracer { return core.SynchronizedTracer(t) }
