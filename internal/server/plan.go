package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"clockroute/api"
	"clockroute/internal/coordinator"
	"clockroute/internal/core"
	"clockroute/internal/faultpoint"
	"clockroute/internal/planner"
	"clockroute/internal/planwire"
	"clockroute/internal/telemetry"
)

// handlePlan serves POST /v1/plan: both wire forms over both routers, on
// one pipeline.
//
// The wire form is chosen by the request's content type — a buffered
// PlanRequest, or (api.ContentTypeNDJSON) a PlanStreamHeader line followed
// by one NetSpec line per net — and decides only three things: how the
// request is decoded, when the response commits (after the last net, or
// after the header), and how results are written (collected into request
// order, or one line each in completion order). It also fixes when the
// admission slot is taken. Every net then takes the same path: name check,
// canonical hash, cache lookup, hand-off to the router, and cache fill on
// the way back. The router depends only on configuration: the in-process
// planner, or the sharding coordinator when Config.Coordinator is set.
//
// Buffered, the HTTP status covers the whole plan: an invalid net is a 400
// before anything routes, and a plan whose every net aborted with none
// cached is a deadline failure (504, or 503 while draining). Streamed, the
// status covers only the header: decode, shutdown, and admission failures
// before the first response byte map onto the same codes (400/503/429).
// From the first byte on the stream is committed to 200, and any later
// fault — a malformed net line, a duplicate name, a contained panic — ends
// it with an error trailer; every result line already emitted stays valid.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	m := s.cfg.Metrics
	m.Requests.Inc()
	defer s.observeLatency(start)
	rec := telemetry.RecorderFromContext(r.Context())
	tc, _ := telemetry.TraceFromContext(r.Context())
	rid := telemetry.RequestIDFromContext(r.Context())

	endDecode := rec.Phase("decode")
	if err := faultpoint.Check("server.decode"); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	p, err := s.decodePlan(r, rec)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	endDecode()

	leave, ok := s.enter()
	if !ok {
		s.fail(w, http.StatusServiceUnavailable, errors.New("server: shutting down"))
		return
	}
	defer leave()

	// When admission is taken. A buffered plan looks every net up first:
	// only a plan with a net left to route pays for a slot, so a fully
	// cached one is answered even while every slot and the queue are full.
	// A stream cannot know whether it will miss until its lines arrive, and
	// a 429 cannot follow the first byte, so it takes its slot at the
	// header — that keeps Retry-After an HTTP header the client can act on.
	var misses []coordinator.Net
	if !p.streamed() {
		endCache := rec.Phase("cache")
		err := p.take(r.Context(), func(n coordinator.Net) { misses = append(misses, n) })
		endCache()
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		if len(misses) == 0 {
			p.finish(w, api.PlanStats{}, nil)
			return
		}
	}
	endAdmission := rec.Phase("admission")
	release, err := s.admit(r.Context())
	if err != nil {
		s.refuse(w, err)
		return
	}
	defer release()
	endAdmission()
	if s.testHookAdmitted != nil {
		s.testHookAdmitted()
	}

	ctx, cancel := s.requestContext(r.Context(), p.hdr.TimeoutMS)
	defer cancel()
	rt, err := p.startRouter(ctx, s.requestSink(rec, tc, rid))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	endSearch := rec.Phase("search")
	// A panic from here on would otherwise unwind into the recovery
	// middleware and leave the router running on an open channel. Contain
	// it instead: drain the router, count the panic like a
	// middleware-recovered one, and report it as the wire form allows.
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		rt.stop()
		if v == http.ErrAbortHandler { //nolint:errorlint // sentinel by identity, per net/http contract
			panic(v)
		}
		s.panics.Add(1)
		m.RequestPanics.Inc()
		endSearch()
		p.fail(w, core.NewInternalError(v, debug.Stack()))
	}()

	var streamErr error
	if p.streamed() {
		p.commit(w)
		streamErr = p.take(ctx, rt.send)
	} else {
		for _, n := range misses {
			rt.send(n)
		}
	}
	stats := rt.stop()
	endSearch()

	endEncode := rec.Phase("encode")
	p.finish(w, stats, streamErr)
	endEncode()
}

// planRun is one /v1/plan request on its way through the pipeline.
type planRun struct {
	s   *Server
	rec *telemetry.Recorder
	// hdr carries the plan's grid, workers, timeout, and cache options; a
	// buffered request's are copied into one, so both forms (and the
	// coordinator, which forwards it to its backends) read the same shape.
	hdr *api.PlanStreamHeader
	// mode is the effective cache mode. A coordinator front bypasses its
	// own cache in both forms: each backend caches the results it
	// computes, and a second copy here would double-count and could be
	// poisoned by a partially failed exchange.
	mode string

	dec     *api.PlanStreamDecoder // streamed: the rest of the body
	sw      *streamWriter          // streamed: set at commit
	nets    []api.NetSpec          // buffered: nets not yet taken
	results []api.NetResult        // buffered: collected in request order

	cached int // nets served from the cache; handler goroutine only

	mu sync.Mutex
	// byName is every net taken so far: the name check's memory and the
	// way back's address book. Only take writes it, so take reads it
	// without the lock; the router's goroutines read it under mu.
	byName  map[string]planNet
	aborted int   // routed nets that failed on an abort
	abort   error // the first of them
}

// planNet is what the way back needs of a net: its content address and
// its position in the request.
type planNet struct {
	hash api.ProblemHash
	idx  int
}

// decodePlan reads the request up to its first net (wire form: decode). A
// stream yields only its header line here and its nets later, one line at
// a time; a buffered request is decoded and validated whole, so an invalid
// net fails it before anything routes.
func (s *Server) decodePlan(r *http.Request, rec *telemetry.Recorder) (*planRun, error) {
	p := &planRun{s: s, rec: rec, byName: make(map[string]planNet)}
	if strings.HasPrefix(r.Header.Get("Content-Type"), api.ContentTypeNDJSON) {
		p.dec = api.NewPlanStreamDecoder(r.Body)
		hdr, err := p.dec.Header()
		if err != nil {
			return nil, err
		}
		p.hdr = hdr
	} else {
		req, err := api.DecodePlanRequest(r.Body)
		if err != nil {
			return nil, err
		}
		p.hdr = &api.PlanStreamHeader{Grid: req.Grid, Workers: req.Workers, TimeoutMS: req.TimeoutMS, Cache: req.Cache}
		p.nets = req.Nets
		p.results = make([]api.NetResult, len(req.Nets))
	}
	p.mode = s.cacheMode(p.hdr.Cache)
	if s.cfg.Coordinator != nil {
		p.mode = api.CacheModeBypass
	}
	return p, nil
}

func (p *planRun) streamed() bool { return p.dec != nil }

// next yields the request's next net, io.EOF after the last (wire form:
// decode). A stream stops decoding once ctx — its deadline, a drain, or
// its client leaving — ends it; the router fails the nets already handed
// over fast and drains.
func (p *planRun) next(ctx context.Context) (*api.NetSpec, error) {
	if !p.streamed() {
		if len(p.nets) == 0 {
			return nil, io.EOF
		}
		n := &p.nets[0]
		p.nets = p.nets[1:]
		return n, nil
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("server: stream aborted: %w", context.Cause(ctx))
	}
	return p.dec.Next(&p.hdr.Grid)
}

// take runs every remaining net through the front half of the path — name
// check, canonical hash, cache lookup — writing each hit at once and
// handing each miss to route. It stops at the end of the nets or at the
// first error.
func (p *planRun) take(ctx context.Context, route func(coordinator.Net)) error {
	for {
		n, err := p.next(ctx)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if _, dup := p.byName[n.Name]; dup {
			return fmt.Errorf("api: duplicate net name %q", n.Name)
		}
		c, err := api.CanonicalizeNet(&p.hdr.Grid, n)
		if err != nil {
			return err
		}
		h := c.Hash()
		p.mu.Lock()
		idx := len(p.byName)
		p.byName[n.Name] = planNet{hash: h, idx: idx}
		p.mu.Unlock()
		// Register each net's content address so its span carries it the
		// moment a worker opens the net — a slow miss in the tree is then
		// directly replayable against /v1/route.
		p.rec.SetNetAttr(n.Name, "problem_hash", h.Hex())
		if p.mode == api.CacheModeDefault {
			if nr, ok := p.s.cachedNetResult(h, n.Name); ok {
				p.cached++
				p.write(idx, nr)
				continue
			}
		}
		route(coordinator.Net{Spec: *n, Hash: h})
	}
}

// router is a running hand-off: send passes it one net, and stop ends its
// input and returns the plan's stats once every net has come back (later
// calls return the same stats).
type router struct {
	send func(coordinator.Net)
	stop func() api.PlanStats
}

// startRouter starts the plan's router: the coordinator when one is
// configured, else the in-process planner over the plan's grid. Both
// consume nets from a window-bounded channel, so a plan arriving faster
// than it routes blocks the decoder (and, through TCP, the sender)
// instead of buffering; two nets per worker keep every worker fed while
// the decoder reads ahead. Both answer every net exactly once through
// deliver, and both drain their input to its close even once ctx ends, so
// a send never blocks for good.
func (p *planRun) startRouter(ctx context.Context, sink telemetry.Sink) (*router, error) {
	workers := p.hdr.Workers
	if workers <= 0 || workers > p.s.cfg.MaxWorkers {
		workers = p.s.cfg.MaxWorkers
	}
	window := max(2*workers, 16)
	done := make(chan api.PlanStats, 1)
	if c := p.s.cfg.Coordinator; c != nil {
		in := make(chan coordinator.Net, window)
		go func() {
			done <- c.Plan(ctx, p.hdr, workers, in, func(nr api.NetResult) {
				// A backend's abort reads as any other failure on the wire;
				// a failure once the plan's own deadline or drain has cut
				// it short counts as one.
				var abort error
				if nr.Error != "" && ctx.Err() != nil {
					abort = fmt.Errorf("%w: %s", core.ErrAborted, nr.Error)
				}
				p.deliver(nr, false, abort)
			})
		}()
		return &router{
			send: func(n coordinator.Net) { in <- n },
			stop: sync.OnceValue(func() api.PlanStats { close(in); return <-done }),
		}, nil
	}
	pl, err := planwire.NewStreamPlanner(&p.hdr.Grid, p.s.cfg.Tech, sink)
	if err != nil {
		return nil, err
	}
	in := make(chan planner.NetSpec, window)
	g := pl.Grid()
	go func() {
		// RunStream reports every failure per net, in the results.
		st, _ := pl.RunStream(ctx, workers, in, func(res planner.NetResult) {
			var abort error
			if errors.Is(res.Err, core.ErrAborted) {
				abort = res.Err
			}
			p.deliver(planwire.NetResultOnWire(&res, g), res.Err == nil && !res.Panicked && !res.Retried, abort)
		})
		done <- planwire.PlanStatsOnWire(st)
	}()
	return &router{
		send: func(n coordinator.Net) { in <- planwire.SpecFromNet(&n.Spec) },
		stop: sync.OnceValue(func() api.PlanStats { close(in); return <-done }),
	}, nil
}

// deliver is a routed net's way back: its content address goes on, a
// clean result fills the cache, and the result is written. Only a clean,
// first-attempt success may fill: a net that panicked (even if its retry
// healed) or failed stores nothing, so nothing downstream of a quarantined
// search is ever served to a later request.
func (p *planRun) deliver(nr api.NetResult, clean bool, abort error) {
	p.mu.Lock()
	n := p.byName[nr.Name]
	if abort != nil {
		if p.aborted == 0 {
			p.abort = abort
		}
		p.aborted++
	}
	p.mu.Unlock()
	nr.ProblemHash = n.hash.Hex()
	if clean && p.mode != api.CacheModeBypass {
		p.s.fillNetResult(n.hash, nr)
	}
	p.write(n.idx, nr)
}

// commit opens a streamed response (wire form: commit); from here every
// fault is a trailer, not a status. The HTTP/1 server half-closes an
// unread request body at the first response write; this transport is
// genuinely full-duplex (results go down while nets still come up), so it
// opts out first. HTTP/2 is always full-duplex and may report the call
// unsupported — ignored.
func (p *planRun) commit(w http.ResponseWriter) {
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", api.ContentTypeNDJSON)
	w.WriteHeader(http.StatusOK)
	p.sw = newStreamWriter(w)
}

// write delivers one result (wire form: write): a line of a committed
// stream, or the slot of a buffered plan's response.
func (p *planRun) write(idx int, nr api.NetResult) {
	if p.streamed() {
		p.sw.writeLine(nr)
		return
	}
	p.results[idx] = nr
}

// finish ends the response. Cached nets count as routed. A stream gets
// its trailer: the stats, or the error that cut it short. A buffered plan
// whose every net was routed and aborted is a deadline failure, not a
// result — cached nets would carry part of the answer; otherwise it gets
// its results, in request order, with X-Cache: hit only when every net
// came from the cache.
func (p *planRun) finish(w http.ResponseWriter, stats api.PlanStats, err error) {
	stats.NetsRouted += p.cached
	if p.streamed() {
		if err != nil {
			p.sw.trailerError(p.s.cfg.Metrics, err)
			return
		}
		p.sw.writeLine(api.PlanStreamTrailer{Stats: &stats})
		return
	}
	if p.aborted == len(p.results) {
		p.s.failSearch(w, p.abort)
		return
	}
	w.Header().Set("X-Cache", xcache(p.cached == len(p.results)))
	writeJSON(w, http.StatusOK, &api.PlanResponse{Nets: p.results, Stats: stats})
}

// fail reports a contained panic: a 500 while a buffered plan has written
// nothing, an error trailer once a stream has committed.
func (p *planRun) fail(w http.ResponseWriter, err error) {
	if p.sw != nil {
		p.sw.trailerError(p.s.cfg.Metrics, err)
		return
	}
	p.s.fail(w, http.StatusInternalServerError, err)
}

// streamWriter serializes NDJSON response lines and flushes each one so a
// result reaches the client as soon as it exists. Both the decode loop
// (cache hits) and the router's deliveries write through it. A write error
// (the client went away) latches: later lines are dropped silently, since
// there is no one left to read them.
type streamWriter struct {
	mu  sync.Mutex
	w   io.Writer
	rc  *http.ResponseController // follows middleware wrappers via Unwrap
	err error
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	return &streamWriter{w: w, rc: http.NewResponseController(w)}
}

func (sw *streamWriter) writeLine(v any) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		sw.err = err
		return
	}
	b = append(b, '\n')
	if _, err := sw.w.Write(b); err != nil {
		sw.err = err
		return
	}
	_ = sw.rc.Flush() // per-line delivery; unsupported writers just buffer
}

// trailerError ends a committed stream with an error trailer, counting it
// as a request error exactly as a pre-commit failure status would.
func (sw *streamWriter) trailerError(m *telemetry.Metrics, err error) {
	m.RequestErrors.Inc()
	sw.writeLine(api.PlanStreamTrailer{Error: err.Error()})
}
