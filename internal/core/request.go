package core

import (
	"context"
	"fmt"

	"clockroute/internal/faultpoint"
	"clockroute/internal/telemetry"
)

// Kind selects one of the published algorithms for Route.
type Kind int

// Request kinds.
const (
	// KindFastPath is the minimum-delay buffered baseline (no registers).
	KindFastPath Kind = iota
	// KindRBP is single-clock registered-buffered routing.
	KindRBP
	// KindGALS is cross-domain routing through one mixed-clock FIFO.
	KindGALS
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFastPath:
		return "fastpath"
	case KindRBP:
		return "rbp"
	case KindGALS:
		return "gals"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves an algorithm name ("fastpath", "rbp", "gals") back to
// its Kind — the inverse of Kind.String, shared by the service's JSON
// decoder and any CLI that selects the algorithm by name.
func ParseKind(s string) (Kind, error) {
	for k := KindFastPath; k <= KindGALS; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm kind %q (want fastpath, rbp, or gals)", s)
}

// Request bundles one routing query for Route: the algorithm, its clock
// parameters, and the search options. The zero value of Options keeps the
// published behavior; only the fields the Kind needs are consulted.
type Request struct {
	Kind Kind
	// PeriodPS is the clock period for KindRBP.
	PeriodPS float64
	// SrcPeriodPS and DstPeriodPS are the two domain periods for KindGALS.
	SrcPeriodPS float64
	DstPeriodPS float64
	Options     Options
}

// Route runs the algorithm selected by req on p, threading ctx into the
// search: the context's deadline narrows Options.Deadline and its
// cancellation is polled through Options.Abort, so a cancelled or expired
// context aborts the search promptly with an error wrapping both ErrAborted
// and the context's error. FastPath, RBP, and GALS remain available as
// direct calls for context-free use.
//
// When Options.Telemetry carries a sink, Route brackets the run with
// search_start/search_end events (the end event carries the Stats counters
// and the abort cause) and emits wave_start per wavefront; with a nil sink
// this path adds no work and no allocation.
func Route(ctx context.Context, p *Problem, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrAborted, err)
	}
	// core.search is the error-injection site of the chaos suite: unlike
	// the panic-oriented sites inside the search bodies it has an error
	// return, so injected errors surface exactly like organic search
	// failures (and panic mode is contained by the wrappers below).
	if err := faultpoint.Check("core.search"); err != nil {
		return nil, err
	}
	opts := withContext(ctx, req.Options)
	if opts.Telemetry == nil {
		return dispatch(p, req, opts)
	}

	// Instrumented path: bracket the run with search_start/search_end and
	// hand the sink to the engine, which emits wave_start as each wave
	// opens. Everything here is reached only with a sink installed, keeping
	// the zero-value path allocation-free.
	algo := req.Kind.String()
	sink := opts.Telemetry
	sink.Emit(telemetry.Event{Kind: telemetry.EventSearchStart, TimeNS: telemetry.Now(), Algo: algo})
	opts.waves, opts.waveAlgo = sink, algo
	res, err := dispatch(p, req, opts)
	end := telemetry.Event{Kind: telemetry.EventSearchEnd, TimeNS: telemetry.Now(), Algo: algo}
	if err != nil {
		end.Err = err.Error()
	}
	if res != nil {
		end.LatencyPS = res.Latency
		end.Configs = res.Stats.Configs
		end.Pushed = res.Stats.Pushed
		end.Pruned = res.Stats.Pruned
		end.BoundPruned = res.Stats.BoundPruned
		end.ProbeConfigs = res.Stats.ProbeConfigs
		end.Waves = res.Stats.Waves
		end.MaxQSize = res.Stats.MaxQSize
		end.ElapsedNS = res.Stats.Elapsed.Nanoseconds()
	}
	sink.Emit(end)
	return res, err
}

// dispatch selects and runs the algorithm for req.
func dispatch(p *Problem, req Request, opts Options) (*Result, error) {
	switch req.Kind {
	case KindFastPath:
		return FastPath(p, opts)
	case KindRBP:
		return RBP(p, req.PeriodPS, opts)
	case KindGALS:
		return GALS(p, req.SrcPeriodPS, req.DstPeriodPS, opts)
	}
	return nil, fmt.Errorf("core: unknown request kind %v", req.Kind)
}

// withContext folds ctx's deadline and cancellation into a copy of opts.
func withContext(ctx context.Context, opts Options) Options {
	if d, ok := ctx.Deadline(); ok && (opts.Deadline.IsZero() || d.Before(opts.Deadline)) {
		opts.Deadline = d
	}
	if ctx.Done() != nil {
		prev := opts.Abort
		opts.Abort = func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			if prev != nil {
				return prev()
			}
			return nil
		}
	}
	return opts
}
