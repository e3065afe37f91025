// Package telemetry is the observability layer for the routing system: a
// structured event stream (spans of searches, wavefronts, and batch nets),
// an atomic metrics registry exported via expvar, and an opt-in HTTP
// debug server exposing /metrics, /progress, and /debug/pprof.
//
// The package depends only on the standard library and knows nothing about
// grids or routers: producers (core.Route, the planner's worker pool, the
// CLIs) emit Events into a Sink, and consumers — a JSONL file writer, a
// post-mortem ring buffer, the Metrics registry, the Progress tracker —
// implement Sink and can be fanned out with Multi. Everything is
// goroutine-safe, and a nil Sink everywhere means zero overhead: the
// producers guard every emission with a nil check, so the uninstrumented
// path performs no allocation and no atomic traffic.
package telemetry

import (
	"encoding/json"
	"fmt"
	"time"
)

// EventKind discriminates the span events of the trace stream.
type EventKind uint8

// Event kinds. Search* and Wave* events describe one dynamic-programming
// search (one core.Route call); Net* events describe one net's life cycle
// through the planner's batch engine.
const (
	// EventSearchStart opens a search span; Algo carries the algorithm.
	EventSearchStart EventKind = iota
	// EventWaveStart marks a wavefront beginning inside a search; Wave and
	// LatencyPS mirror the core.Tracer.WaveStart arguments.
	EventWaveStart
	// EventSearchEnd closes a search span with its Stats fields filled;
	// Err holds the abort cause or infeasibility, empty on success.
	EventSearchEnd
	// EventNetQueued records the batch engine taking a net in
	// (planner.RunStream, for either wire form), just before a worker
	// starts it.
	EventNetQueued
	// EventNetStart records a worker picking the net up; Worker is set.
	EventNetStart
	// EventNetEnd closes the net span: ElapsedNS, LatencyPS, the winning
	// search's effort counters, and Err on failure.
	EventNetEnd
	// EventSlowRequest records a request that breached the flight
	// recorder's SLO: Trace/Request identify it, ElapsedNS is its wall
	// time, and Payload carries the full *SpanTree for post-mortems.
	EventSlowRequest
)

var kindNames = [...]string{
	EventSearchStart: "search_start",
	EventWaveStart:   "wave_start",
	EventSearchEnd:   "search_end",
	EventNetQueued:   "net_queued",
	EventNetStart:    "net_start",
	EventNetEnd:      "net_end",
	EventSlowRequest: "slow_request",
}

// String names the kind as it appears in the JSONL stream.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// MarshalJSON renders the kind as its string name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses a kind name back (for trace replay tooling).
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range kindNames {
		if name == s {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown event kind %q", s)
}

// Event is one record of the trace stream. Producers fill the fields their
// kind defines and leave the rest zero; `omitempty` keeps the JSONL lines
// compact. Seq is assigned by ordered sinks (JSONL, Ring) under their lock,
// so within one sink it is a strict emission order even when events arrive
// from many workers at once.
type Event struct {
	Kind EventKind `json:"kind"`
	// TimeNS is the wall-clock emission time in Unix nanoseconds.
	TimeNS int64  `json:"t_ns"`
	Seq    uint64 `json:"seq,omitempty"`
	// Net labels the net the event belongs to (batch runs only).
	Net string `json:"net,omitempty"`
	// Worker is the batch-engine worker index, -1 when unknown.
	Worker int `json:"worker,omitempty"`
	// Algo names the search algorithm (fastpath, rbp, gals).
	Algo string `json:"algo,omitempty"`
	// Wave and LatencyPS annotate wave_start; LatencyPS is also the final
	// routed latency on search_end / net_end.
	Wave      int     `json:"wave,omitempty"`
	LatencyPS float64 `json:"latency_ps,omitempty"`
	// Search-effort counters (search_end, net_end), mirroring core.Stats.
	Configs int `json:"configs,omitempty"`
	Pushed  int `json:"pushed,omitempty"`
	Pruned  int `json:"pruned,omitempty"`
	// BoundPruned counts candidates cut by the admissible search bounds
	// before entering the Pareto stores; ProbeConfigs is the extra effort
	// the incumbent probe spent (not included in Configs).
	BoundPruned  int   `json:"bound_pruned,omitempty"`
	ProbeConfigs int   `json:"probe_configs,omitempty"`
	Waves        int   `json:"waves,omitempty"`
	MaxQSize     int   `json:"max_q,omitempty"`
	ElapsedNS    int64 `json:"elapsed_ns,omitempty"`
	// Err is the failure or abort cause, empty on success.
	Err string `json:"err,omitempty"`
	// Trace and Request are the W3C trace id and wire request id the event
	// belongs to, stamped by WithTrace at the service boundary so one JSONL
	// stream groups back into per-request traces.
	Trace   string `json:"trace,omitempty"`
	Request string `json:"request,omitempty"`
	// Payload carries a kind-specific structured body (slow_request events
	// attach their *SpanTree). Always nil on the search hot path.
	Payload any `json:"payload,omitempty"`
}

// Sink receives trace events. Implementations must be safe for concurrent
// use: under the planner's worker pool many searches emit at once.
// Emit must not retain the event past the call.
//
// Failure contract: observability must never take the observed system
// down. Emit has no error return by design — a sink whose backing store
// fails (a full disk, a closed pipe) must swallow the error internally
// and surface it out-of-band (see JSONL.Err's sticky-error pattern);
// Emit must not panic, and must not block unboundedly: producers call it
// inline from search hot loops, so a sink that wants to tolerate a slow
// writer should buffer or drop rather than stall the search. The chaos
// suite holds searches to this: with sink.write injected to fail or
// delay, every search still returns its exact result.
type Sink interface {
	Emit(Event)
}

// Now stamps an event time. Split out so producers share one definition.
func Now() int64 { return time.Now().UnixNano() }

// multi fans one emission out to several sinks in order.
type multi []Sink

func (m multi) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Multi returns a sink broadcasting every event to all of sinks, skipping
// nils. With zero or one usable sink it collapses to nil or that sink.
func Multi(sinks ...Sink) Sink {
	var live multi
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// fieldSink stamps Net and Worker onto every event passing through.
type fieldSink struct {
	next   Sink
	net    string
	worker int
}

func (f *fieldSink) Emit(e Event) {
	if e.Net == "" {
		e.Net = f.net
	}
	e.Worker = f.worker
	f.next.Emit(e)
}

// WithFields wraps next so every event is labeled with the given net name
// and worker index (the batch engine wraps the plan's sink once per net).
// A nil next returns nil, keeping the no-op fast path free.
func WithFields(next Sink, net string, worker int) Sink {
	if next == nil {
		return nil
	}
	return &fieldSink{next: next, net: net, worker: worker}
}
