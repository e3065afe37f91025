// Package core implements the paper's algorithms: the fast-path baseline of
// Zhou et al. (Fig. 1), the registered-buffered path algorithm RBP for
// single-clock domains (Fig. 5, in its published two-queue form), and the
// GALS algorithm for multiple-clock domains (Fig. 12), plus the search of
// the latch router (package latch).
//
// All of them are backward dynamic programs: partial solutions grow from
// the sink t toward the source s, keyed by Elmore delay, with
// (capacitance, delay) dominance pruning per node. RBP and GALS
// additionally propagate in wavefronts — one wave per register count
// (RBP) or per accumulated latency (GALS) — because candidates from
// different waves are incomparable (Section III, Fig. 4).
//
// They are one wavefront engine (wave.go) run under a clocking scheme:
// the clock domains with their periods and closing elements (RBP has one;
// GALS two, the MCFIFO moving a path from the sink's domain to the
// source's), and the queue holding future waves. FastPath is the
// one-wave scheme with no closing register, which keeps the least source
// close as its incumbent until Q's least key reaches it. The latch
// router's search at a fixed cycle count k is a register-count scheme
// whose candidates carry a deadline and whose segments close into a
// latch in a half-period slot (latch.go); the deepening over k is an
// outer loop around the engine.
package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"clockroute/internal/candidate"
	"clockroute/internal/elmore"
	"clockroute/internal/grid"
	"clockroute/internal/route"
	"clockroute/internal/tech"
	"clockroute/internal/telemetry"
)

// ErrNoPath is returned when no feasible solution exists, e.g. when the
// clock period is too small for the grid pitch (Table II's empty cells) or
// the sink is unreachable.
var ErrNoPath = errors.New("core: no feasible routing solution")

// ErrAborted is returned when a search stops before exhausting its space:
// the MaxConfigs budget ran out, the Deadline passed, or the Abort hook
// (including a cancelled context threaded through Route) fired. It is
// distinct from ErrNoPath — an aborted search says nothing about
// feasibility.
var ErrAborted = errors.New("core: search aborted")

// ErrInternal is the sentinel wrapped by every contained panic: a search
// body (or anything else inside a recovery boundary) that panics surfaces
// as an error wrapping ErrInternal instead of crashing the process. Match
// with errors.Is; the concrete *InternalError carries the panic value and
// the stack captured at the recovery point.
var ErrInternal = errors.New("core: internal error (contained panic)")

// InternalError is a panic contained at a recovery boundary — the exported
// search wrappers, the batch engine's workers, and the HTTP service all
// classify recovered panics this way so a latent bug in one search fails
// that one search (or net, or request), never the process.
type InternalError struct {
	// Cause is the recovered panic value.
	Cause any
	// Stack is the goroutine stack captured at the recovery point.
	Stack []byte
}

// NewInternalError classifies a recovered panic value. A nil stack
// captures the current goroutine's stack, so call it directly inside the
// recover branch.
func NewInternalError(cause any, stack []byte) *InternalError {
	if stack == nil {
		stack = debug.Stack()
	}
	return &InternalError{Cause: cause, Stack: stack}
}

// Error implements error. The stack is kept off the one-line message
// (which ends up in JSON error bodies and telemetry events); diagnostics
// that want it unwrap to *InternalError and read Stack.
func (e *InternalError) Error() string {
	return fmt.Sprintf("%v: %v", ErrInternal, e.Cause)
}

// Unwrap ties the error to ErrInternal and, when the panic value was
// itself an error (e.g. an injected faultpoint), to that cause — so
// errors.Is sees through the containment to both.
func (e *InternalError) Unwrap() []error {
	out := []error{ErrInternal}
	if c, ok := e.Cause.(error); ok {
		out = append(out, c)
	}
	return out
}

// Tracer observes the search for visualization and diagnostics.
// Implementations must be cheap; the router calls Visit for every candidate
// it pops. A Tracer is called from the goroutine running the search and
// need not be goroutine-safe, so it observes one search at a time: the
// planner hands its searches none (see planner.RunStream). For per-net
// structured observation use Options.Telemetry — sinks are goroutine-safe
// by contract.
type Tracer interface {
	// WaveStart is called when a new wavefront begins. For RBP, wave is the
	// register count and latency is T×(wave+1); for GALS, latency is the
	// wavefront's accumulated l. FastPath has a single wave 0.
	WaveStart(wave int, latency float64)
	// Visit is called for every live candidate popped from Q.
	Visit(wave int, node int)
}

// Options tune a search run. The zero value runs the algorithms exactly as
// published.
type Options struct {
	// DisablePruning turns off (c,d) dominance pruning. Exponential in the
	// worst case — ablation use only, on small grids.
	DisablePruning bool
	// DisableLookahead turns off the feasibility look-ahead of every
	// clocked kernel (RBP and GALS): an edge needs d' ≤ T − K − R·c' and a
	// buffer d' ≤ T − K, with K and R the least intrinsic delay and drive
	// resistance among the elements that can close the segment's domain.
	// Without it both fall back to the plain d' ≤ T test. Results are
	// identical either way; only the effort differs.
	DisableLookahead bool
	// MaximizeSlack (RBP only) selects, among all minimum-latency
	// solutions, one maximizing the sum of the source and sink segment
	// slacks — the extension discussed at the end of Section III. Pruning
	// becomes three-dimensional (capacitance, delay, slack) and the winning
	// wave is drained completely, so runs cost more than plain RBP.
	MaximizeSlack bool
	// Trace, when non-nil, observes the expansion of one search (see
	// Tracer). A planner drops it: its searches report through Telemetry.
	Trace Tracer
	// Telemetry, when non-nil, receives structured span events from Route:
	// search_start/search_end around the run and wave_start for every
	// wavefront. Sinks must be goroutine-safe (telemetry.Sink contract), so
	// unlike Trace a single sink may serve any number of concurrent
	// searches. A nil sink costs nothing — the uninstrumented path performs
	// no allocation.
	Telemetry telemetry.Sink
	// DisableBounds turns off the A*-style admissible bound layer
	// (bounds.go): no BFS distance field, no incumbent probe (the kernel
	// run on one shortest path), no bound-based pruning. The search then
	// runs the plain exact expansion.
	// Results are identical either way — that equivalence is what the
	// differential harness proves — so this switch exists for ablation
	// benchmarks and as the reference arm of those proofs.
	DisableBounds bool
	// MaxConfigs aborts the search with ErrAborted after this many popped
	// candidates (0 = unlimited). A safety valve for ablations.
	MaxConfigs int
	// Deadline, when non-zero, aborts the search with ErrAborted once the
	// wall clock passes it. Route narrows it further from the context's
	// deadline.
	Deadline time.Time
	// Abort, when non-nil, is polled cooperatively from the wavefront loops;
	// a non-nil return aborts the search with that error wrapped in
	// ErrAborted. Route installs a context check here.
	Abort func() error

	// waves receives a wave_start event, labelled waveAlgo, as each
	// wavefront opens. Only Route sets it, from Telemetry, so direct
	// kernel calls, the incumbent probe and the latch router emit none.
	waves    telemetry.Sink
	waveAlgo string
}

// abortStride is how many popped candidates go between polls of the
// Deadline and Abort hooks; MaxConfigs is enforced exactly on every pop.
// At typical expansion rates a stride is well under a millisecond, so
// cancellation stays prompt without a clock read per candidate. The first
// pop of each stride polls, so even a search shorter than one stride sees
// an expired deadline or a firing hook.
const abortStride = 256

// CheckAbort reports whether the search must stop after popping the
// configs-th candidate. The returned error (nil to continue) wraps
// ErrAborted; for Abort-hook failures it wraps the hook's error too, so
// callers can errors.Is against both ErrAborted and e.g. context.Canceled.
func (o *Options) CheckAbort(configs int) error {
	if o.MaxConfigs > 0 && configs > o.MaxConfigs {
		return fmt.Errorf("%w: MaxConfigs budget of %d exhausted", ErrAborted, o.MaxConfigs)
	}
	if o.Abort == nil && o.Deadline.IsZero() {
		return nil
	}
	if configs%abortStride != 1 {
		return nil
	}
	if !o.Deadline.IsZero() && time.Now().After(o.Deadline) {
		return fmt.Errorf("%w: deadline exceeded", ErrAborted)
	}
	if o.Abort != nil {
		if err := o.Abort(); err != nil {
			return fmt.Errorf("%w: %w", ErrAborted, err)
		}
	}
	return nil
}

// Stats records the effort of one search run, matching the instrumented
// columns of Table I.
type Stats struct {
	Configs  int           // candidates popped off Q ("Configs" in Table I)
	Pushed   int           // candidates pushed onto Q/Q*
	Pruned   int           // candidates rejected as dominated on arrival
	Killed   int           // queued candidates invalidated by later arrivals
	Waves    int           // wavefronts processed
	MaxQSize int           // peak combined queue size ("MaxQSize" in Table I)
	Elapsed  time.Duration // wall time
	// BoundPruned counts candidates cut by the admissible lower-bound layer
	// (bounds.go) before reaching a store or heap — the observable effect of
	// A* pruning in the main search. For plain RBP and GALS it includes the
	// candidates the probe's arrival key rules out (keyBound): they might
	// complete within the incumbent latency, but never as the returned
	// route.
	BoundPruned int
	// ProbeConfigs is the effort the incumbent probe spent before the main
	// search: the pops of the kernel run on one shortest path, whether or
	// not that path admitted a solution. Not included in Configs, which
	// keeps its exact Table-I meaning.
	ProbeConfigs int
}

// Result is the outcome of a search.
type Result struct {
	Path *route.Path
	// Latency is the optimized objective: the minimum buffered path delay
	// for FastPath, T×(p+1) for RBP, and Ts×(pS+1)+Tt×(pT+1) for GALS (ps).
	Latency float64
	// SourceDelay is the Elmore delay of the segment adjacent to the source
	// (FastPath: the whole path delay), useful for slack reporting.
	SourceDelay float64
	// SlackPS is the sum of the source- and sink-segment slacks of the
	// returned RBP path (maximal when Options.MaximizeSlack is set).
	SlackPS    float64
	Registers  int // internal registers (RBP; GALS: both sides combined)
	RegS, RegT int // GALS: registers on the source / sink side of the FIFO
	Buffers    int
	Stats      Stats

	// arrivalKey is the queue key D of the arrival a windowed wavefront
	// run (the incumbent probe) returned; the main search bounds the key
	// of its own arrival by it (keyBound).
	arrivalKey float64
}

// Problem bundles the inputs shared by all three algorithms.
type Problem struct {
	Grid   *grid.Grid
	Model  *elmore.Model
	Source int
	Sink   int
}

// NewProblem validates and builds a Problem over g with source s and sink t.
func NewProblem(g *grid.Grid, m *elmore.Model, s, t int) (*Problem, error) {
	if g == nil || m == nil {
		return nil, errors.New("core: nil grid or model")
	}
	if m.PitchMM() != g.PitchMM() {
		return nil, fmt.Errorf("core: model pitch %g mm != grid pitch %g mm", m.PitchMM(), g.PitchMM())
	}
	n := g.NumNodes()
	if s < 0 || s >= n || t < 0 || t >= n {
		return nil, fmt.Errorf("core: endpoint out of range (s=%d t=%d n=%d)", s, t, n)
	}
	if s == t {
		return nil, errors.New("core: source equals sink")
	}
	if !g.RegisterInsertable(s) || !g.RegisterInsertable(t) {
		return nil, errors.New("core: source and sink must accept clocked elements")
	}
	return &Problem{Grid: g, Model: m, Source: s, Sink: t}, nil
}

func (p *Problem) tech() *tech.Tech { return p.Model.Tech() }

// initialCandidate builds the sink candidate value (C(r), Setup(r), m', t);
// callers place it in their search's arena.
func (p *Problem) initialCandidate() candidate.Candidate {
	r := p.tech().Register
	return candidate.Candidate{
		C:    r.C,
		D:    r.Setup,
		Node: int32(p.Sink),
		Gate: candidate.GateRegister,
	}
}

// finish reconstructs the path from the final candidate's chain in a and
// fills the counters common to all algorithms.
func (p *Problem) finish(a *candidate.Arena, final candidate.Ref, res *Result) {
	res.Path = route.FromCandidate(a, final, candidate.GateRegister, candidate.GateRegister)
	res.Buffers = res.Path.NumBuffers()
	res.Registers = res.Path.NumRegisters()
	res.RegS, res.RegT = res.Path.RegistersBySide()
}
