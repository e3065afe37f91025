package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"clockroute/internal/faultpoint"
	"clockroute/internal/telemetry"
)

// Observability is the flag group every routed mode shares — -v, -trace,
// -metrics-addr and -faultpoints — and the wiring behind it: the stderr
// logger, the fault-injection registry, the JSONL span trace, and the
// live /metrics, /progress and /debug/pprof endpoints. Register the flags,
// Check them with the command's own, Start once every flag has passed, and
// Close on the way out.
type Observability struct {
	verbose                             bool
	traceFile, metricsAddr, faultpoints string

	// Log is the stderr logger Start builds (debug level with -v).
	Log *slog.Logger
	// Progress tracks in-flight nets for /progress; Start sets it when
	// -metrics-addr is given.
	Progress *telemetry.Progress

	trace *os.File
	jsonl *telemetry.JSONL
}

// Register adds the four flags to fs.
func (o *Observability) Register(fs *flag.FlagSet) {
	fs.BoolVar(&o.verbose, "v", false, "debug-level logging")
	fs.StringVar(&o.traceFile, "trace", "", "append JSONL span events to this file (empty = off)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /progress, and /debug/pprof (the server adds /debug/slow) on this address (empty = off)")
	fs.StringVar(&o.faultpoints, "faultpoints", "", "arm fault-injection points, e.g. 'core.wave_push=panic@3,sink.write=delay:5ms' (also via FAULTPOINTS env)")
}

// Check arms -faultpoints, recording a malformed spec on v. It creates no
// file, so a command runs it with the rest of its flag checks.
func (o *Observability) Check(v *Validator) {
	if o.faultpoints != "" {
		v.Check("faultpoints", faultpoint.Set(o.faultpoints))
	}
}

// Start builds the logger on stderr, then opens the trace file; a failure
// can be reported with Fail.
func (o *Observability) Start(stderr io.Writer) error {
	level := slog.LevelInfo
	if o.verbose {
		level = slog.LevelDebug
	}
	o.Log = slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level}))
	if o.faultpoints != "" {
		o.Log.Warn("fault injection armed", "points", faultpoint.List())
	}
	if o.traceFile != "" {
		f, err := os.Create(o.traceFile)
		if err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		o.trace, o.jsonl = f, telemetry.NewJSONL(f)
		o.Log.Info("tracing spans", "file", o.traceFile)
	}
	if o.metricsAddr != "" {
		o.Progress = telemetry.NewProgress()
	}
	return nil
}

// Sinks returns the event sinks the flags enabled: the JSONL trace and,
// with -metrics-addr, the /progress tracker. The metrics registry is not
// among them; whoever serves it decides what feeds it.
func (o *Observability) Sinks() []telemetry.Sink {
	var out []telemetry.Sink
	if o.jsonl != nil {
		out = append(out, o.jsonl)
	}
	if o.Progress != nil {
		out = append(out, o.Progress)
	}
	return out
}

// Serve starts the live endpoints on -metrics-addr, with opts.Progress
// set to the tracker, and returns the running server for the caller to
// shut down. Without -metrics-addr it returns nil and no error.
func (o *Observability) Serve(opts telemetry.ServerOptions) (*telemetry.Server, error) {
	if o.metricsAddr == "" {
		return nil, nil
	}
	opts.Progress = o.Progress
	srv, err := telemetry.NewServer(o.metricsAddr, opts)
	if err != nil {
		return nil, fmt.Errorf("metrics server: %w", err)
	}
	srv.Start()
	base := "http://" + srv.Addr()
	attrs := []any{"metrics", base + "/metrics", "progress", base + "/progress"}
	if opts.Recorder != nil {
		attrs = append(attrs, "slow", base+"/debug/slow")
	}
	o.Log.Info("observability endpoints up", append(attrs, "pprof", base+"/debug/pprof/")...)
	return srv, nil
}

// Fail logs err under msg and returns exit status 1, for a run that
// cannot go on.
func (o *Observability) Fail(msg string, err error) int {
	o.Log.Error(msg, "err", err)
	return 1
}

// Close closes the trace file, reporting the trace's first write error
// and the close's own.
func (o *Observability) Close() error {
	if o.trace == nil {
		return nil
	}
	err := errors.Join(o.jsonl.Err(), o.trace.Close())
	o.trace = nil
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
