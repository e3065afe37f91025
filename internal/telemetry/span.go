package telemetry

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed node of a request's trace tree. IDs are tree-local
// sequence numbers ("1", "2", …) — compact, deterministic, and unique
// within the tree; the tree itself carries the W3C trace id that makes
// spans joinable across requests and processes.
type Span struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	// Name is the span's role: "request" at the root, a handler phase
	// ("decode", "admission", "cache", "search", "encode"), or a producer
	// span ("net", "search", "wave") built from the event stream.
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns,omitempty"`
	Err     string `json:"err,omitempty"`

	// Producer labels, filled from the event stream where they apply.
	Net    string `json:"net,omitempty"`
	Worker int    `json:"worker,omitempty"`
	Algo   string `json:"algo,omitempty"`
	Wave   int    `json:"wave,omitempty"`
	// Search-effort counters (closed search spans).
	LatencyPS    float64 `json:"latency_ps,omitempty"`
	Configs      int     `json:"configs,omitempty"`
	Pushed       int     `json:"pushed,omitempty"`
	Pruned       int     `json:"pruned,omitempty"`
	BoundPruned  int     `json:"bound_pruned,omitempty"`
	ProbeConfigs int     `json:"probe_configs,omitempty"`
	Waves        int     `json:"waves,omitempty"`

	// Attrs carries request-scoped annotations that do not fit a fixed
	// field — most importantly problem_hash, which makes a slow request
	// directly replayable against the cache and the search kernel.
	Attrs map[string]string `json:"attrs,omitempty"`

	Children []*Span `json:"children,omitempty"`
}

// DurationNS is the span's wall time, 0 while still open.
func (s *Span) DurationNS() int64 {
	if s.EndNS == 0 {
		return 0
	}
	return s.EndNS - s.StartNS
}

// SpanTree is one request's complete trace: the root request span with
// handler phases and producer spans nested beneath it, labeled with the
// trace identity the request arrived with (or was minted).
type SpanTree struct {
	TraceID string `json:"trace_id"`
	// ParentID is the caller's span id from the incoming traceparent.
	ParentID  string `json:"parent_id,omitempty"`
	RequestID string `json:"request_id"`
	Root      *Span  `json:"root"`
	// Spans counts the nodes retained; Dropped counts spans discarded
	// past the per-tree cap (huge batch requests stay bounded).
	Spans   int `json:"spans"`
	Dropped int `json:"dropped,omitempty"`
	// Status is the HTTP status the request was answered with.
	Status int `json:"status,omitempty"`
}

// DurationNS is the whole request's wall time.
func (t *SpanTree) DurationNS() int64 { return t.Root.DurationNS() }

// maxSpansPerTree bounds one tree's memory: a 4096-net plan with wave
// spans would otherwise build six-figure trees. Once the cap is reached
// new spans are counted in Dropped instead of retained; parents already
// in the tree still close normally.
const maxSpansPerTree = 2048

// Recorder assembles one request's SpanTree. It is two things at once:
//
//   - an explicit phase API for the handler's sequential stages —
//     Phase("decode") … Phase("encode") open children of the root span
//     on the request goroutine;
//   - a Sink: fed the request's event stream (fan it in with Multi next
//     to the process sinks), it builds net → search → wave span chains
//     from net_start/search_start/wave_start/…_end events, keyed by net
//     name so concurrent batch workers cannot interleave wrongly.
//
// All methods are goroutine-safe and nil-safe: a nil *Recorder ignores
// every call, so un-instrumented code paths need no guards. After Finish
// the tree is immutable; late events (a detached singleflight search
// finishing after its winner's response) are dropped.
type Recorder struct {
	mu       sync.Mutex
	tree     *SpanTree
	root     *Span
	phase    *Span            // current handler phase, child of root
	nets     map[string]*open // producer chains keyed by net ("" = request's own search)
	netAttrs map[string]map[string]string
	nextID   int
	finished bool
}

// open tracks one net's currently open producer spans.
type open struct {
	net    *Span
	search *Span
	wave   *Span
}

// NewRecorder opens a request tree: name labels the root span (typically
// the endpoint path), tc supplies the trace identity — its SpanID is the
// caller's span (zero when the trace was minted locally and has no
// parent) — and requestID the wire X-Request-Id.
func NewRecorder(tc TraceContext, requestID, name string) *Recorder {
	root := &Span{ID: "1", Name: name, StartNS: Now()}
	parent := ""
	if tc.SpanID != ([8]byte{}) {
		parent = tc.SpanHex()
	}
	return &Recorder{
		tree: &SpanTree{
			TraceID:   tc.TraceHex(),
			ParentID:  parent,
			RequestID: requestID,
			Root:      root,
			Spans:     1,
		},
		root:   root,
		nets:   make(map[string]*open),
		nextID: 1,
	}
}

// newSpan allocates a child span under parent, honoring the tree cap.
// Caller holds r.mu. Returns nil when the cap is exhausted.
func (r *Recorder) newSpan(parent *Span, name string, t int64) *Span {
	if r.tree.Spans >= maxSpansPerTree {
		r.tree.Dropped++
		return nil
	}
	r.nextID++
	s := &Span{ID: strconv.Itoa(r.nextID), Parent: parent.ID, Name: name, StartNS: t}
	parent.Children = append(parent.Children, s)
	r.tree.Spans++
	return s
}

// Phase opens a named handler phase as a child of the root and returns
// its closer. Phases are sequential on the request goroutine; opening a
// new phase while one is open closes the previous one first, so a
// handler bailing out early (shed, decode error) never leaks an open
// span.
func (r *Recorder) Phase(name string) func() {
	if r == nil {
		return func() {}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return func() {}
	}
	now := Now()
	if r.phase != nil && r.phase.EndNS == 0 {
		r.phase.EndNS = now
	}
	s := r.newSpan(r.root, name, now)
	r.phase = s
	return func() {
		if s == nil {
			return
		}
		r.mu.Lock()
		if s.EndNS == 0 {
			s.EndNS = Now()
		}
		if r.phase == s {
			r.phase = nil
		}
		r.mu.Unlock()
	}
}

// SetAttr annotates the root span (e.g. problem_hash, algo).
func (r *Recorder) SetAttr(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return
	}
	if r.root.Attrs == nil {
		r.root.Attrs = make(map[string]string)
	}
	r.root.Attrs[key] = value
}

// SetNetAttr annotates the named net's span; recorded attributes are
// applied, and forgotten, when the net span opens (batch handlers register
// per-net problem hashes before routing starts). A tree at its span cap
// opens no more net spans, so it stores nothing.
func (r *Recorder) SetNetAttr(net, key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished || r.tree.Spans >= maxSpansPerTree {
		return
	}
	if r.netAttrs == nil {
		r.netAttrs = make(map[string]map[string]string)
	}
	m := r.netAttrs[net]
	if m == nil {
		m = make(map[string]string)
		r.netAttrs[net] = m
	}
	m[key] = value
}

// Emit implements Sink, folding the request's event stream into producer
// spans: net_start opens a net span under the root (the current phase for
// single-route requests), search_start opens a search span under the
// event's net span, wave_start opens a wave span under the search (the
// previous wave closes — waves partition the search timeline), and the
// matching _end events close and annotate them.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return
	}
	switch e.Kind {
	case EventNetStart:
		o := r.openFor(e.Net)
		parent := r.parentSpan()
		s := r.newSpan(parent, "net", e.TimeNS)
		attrs := r.netAttrs[e.Net]
		delete(r.netAttrs, e.Net)
		if s != nil {
			s.Net, s.Worker, s.Attrs = e.Net, e.Worker, attrs
		}
		o.net, o.search, o.wave = s, nil, nil
	case EventSearchStart:
		o := r.openFor(e.Net)
		parent := o.net
		if parent == nil {
			parent = r.parentSpan()
		}
		s := r.newSpan(parent, "search", e.TimeNS)
		if s != nil {
			s.Net, s.Worker, s.Algo = e.Net, e.Worker, e.Algo
			if e.Net == "" {
				// A single-route request: replay the root's problem hash
				// onto the search span so the slow view is self-contained.
				if h, ok := r.root.Attrs["problem_hash"]; ok {
					s.Attrs = map[string]string{"problem_hash": h}
				}
			}
		}
		o.search, o.wave = s, nil
	case EventWaveStart:
		o := r.openFor(e.Net)
		if o.wave != nil && o.wave.EndNS == 0 {
			o.wave.EndNS = e.TimeNS
		}
		if o.search == nil {
			return
		}
		s := r.newSpan(o.search, "wave", e.TimeNS)
		if s != nil {
			s.Wave, s.LatencyPS = e.Wave, e.LatencyPS
		}
		o.wave = s
	case EventSearchEnd:
		o := r.openFor(e.Net)
		if o.wave != nil && o.wave.EndNS == 0 {
			o.wave.EndNS = e.TimeNS
		}
		o.wave = nil
		if s := o.search; s != nil {
			s.EndNS = e.TimeNS
			s.Err = e.Err
			s.LatencyPS = e.LatencyPS
			s.Configs, s.Pushed, s.Pruned, s.Waves = e.Configs, e.Pushed, e.Pruned, e.Waves
			s.BoundPruned, s.ProbeConfigs = e.BoundPruned, e.ProbeConfigs
		}
		o.search = nil
	case EventNetEnd:
		o := r.openFor(e.Net)
		if s := o.net; s != nil {
			s.EndNS = e.TimeNS
			s.Err = e.Err
			s.Algo = e.Algo
			s.LatencyPS = e.LatencyPS
			s.Configs, s.Pushed, s.Pruned, s.Waves = e.Configs, e.Pushed, e.Pruned, e.Waves
			s.BoundPruned, s.ProbeConfigs = e.BoundPruned, e.ProbeConfigs
		}
		delete(r.nets, e.Net)
	}
}

// openFor returns (creating on demand) the producer chain for one net.
// Caller holds r.mu.
func (r *Recorder) openFor(net string) *open {
	o := r.nets[net]
	if o == nil {
		o = &open{}
		r.nets[net] = o
	}
	return o
}

// parentSpan picks where a producer span without a net parent attaches:
// the current handler phase when one is open, else the root. Caller
// holds r.mu.
func (r *Recorder) parentSpan() *Span {
	if r.phase != nil && r.phase.EndNS == 0 {
		return r.phase
	}
	return r.root
}

// Finish closes the tree with the response status and returns it. The
// first call wins; later calls (and later Emits) are no-ops returning the
// same finished tree. Open spans are closed at the finish time so a tree
// is always well-formed.
func (r *Recorder) Finish(status int, err error) *SpanTree {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return r.tree
	}
	now := Now()
	if r.phase != nil && r.phase.EndNS == 0 {
		r.phase.EndNS = now
	}
	for _, o := range r.nets {
		for _, s := range []*Span{o.wave, o.search, o.net} {
			if s != nil && s.EndNS == 0 {
				s.EndNS = now
			}
		}
	}
	r.root.EndNS = now
	r.tree.Status = status
	if err != nil {
		r.root.Err = err.Error()
	}
	r.finished = true
	return r.tree
}

// FlightRecorder is the slow-request post-mortem store: every finished
// request's tree is offered to Observe, and those at or above the SLO are
// kept in a bounded ring (newest wins), counted, and persisted to the
// trace sink as a slow_request event carrying the full tree. The ring
// backs the /debug/slow endpoint, so "why was that request slow?" is
// answerable after the fact without re-running anything.
type FlightRecorder struct {
	slo  time.Duration
	sink Sink     // slow trees are persisted here; nil = ring only
	m    *Metrics // SlowRequests counter; nil = uncounted

	mu   sync.Mutex
	ring []*SpanTree
	next int
	full bool

	slow atomic.Int64
}

// NewFlightRecorder builds a recorder keeping the last `keep` slow trees
// (keep < 1 is clamped to 1). Requests with duration >= slo are slow;
// slo <= 0 disables recording (Observe becomes counting-free).
func NewFlightRecorder(slo time.Duration, keep int, sink Sink, m *Metrics) *FlightRecorder {
	if keep < 1 {
		keep = 1
	}
	return &FlightRecorder{slo: slo, sink: sink, m: m, ring: make([]*SpanTree, keep)}
}

// SLO returns the slow threshold.
func (f *FlightRecorder) SLO() time.Duration { return f.slo }

// Observe classifies one finished request tree. Fast requests are
// ignored; slow ones are ringed, counted, and persisted. Safe for
// concurrent use; nil receivers and nil trees are ignored.
func (f *FlightRecorder) Observe(t *SpanTree) {
	if f == nil || t == nil || f.slo <= 0 || time.Duration(t.DurationNS()) < f.slo {
		return
	}
	f.slow.Add(1)
	if f.m != nil {
		f.m.SlowRequests.Inc()
	}
	f.mu.Lock()
	f.ring[f.next] = t
	f.next++
	if f.next == len(f.ring) {
		f.next, f.full = 0, true
	}
	f.mu.Unlock()
	if f.sink != nil {
		f.sink.Emit(Event{
			Kind: EventSlowRequest, TimeNS: Now(),
			Trace: t.TraceID, Request: t.RequestID,
			ElapsedNS: t.DurationNS(),
			Err:       t.Root.Err,
			Payload:   t,
		})
	}
}

// Slow reports the total number of slow requests observed.
func (f *FlightRecorder) Slow() int64 {
	if f == nil {
		return 0
	}
	return f.slow.Load()
}

// Snapshot returns up to n retained slow trees, newest first (n <= 0
// means all).
func (f *FlightRecorder) Snapshot(n int) []*SpanTree {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	size := f.next
	if f.full {
		size = len(f.ring)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]*SpanTree, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, f.ring[(f.next-i+len(f.ring))%len(f.ring)])
	}
	return out
}

// ServeHTTP serves the /debug/slow payload: the SLO, the slow counters,
// and the retained trees newest first. ?n= bounds the tree count.
func (f *FlightRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		if p, err := strconv.Atoi(v); err == nil {
			n = p
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{
		"slo_ms":        float64(f.SLO()) / float64(time.Millisecond),
		"slow_requests": f.Slow(),
		"trees":         f.Snapshot(n),
	})
}
