// Package server is the HTTP front end of the routing system: it exposes
// the unified Route API (POST /v1/route) and the parallel batch planner
// (POST /v1/plan) as a stdlib-only JSON service with admission control.
//
// Admission is two-staged: a bounded in-flight semaphore caps concurrent
// routing work, and a bounded wait queue absorbs short bursts. When both
// are full the server sheds the request with 429 and a Retry-After hint
// instead of letting latency collapse — the wire format and status mapping
// are documented in package api. Graceful shutdown drains: new requests
// get 503, in-flight searches run to completion, and only when the drain
// deadline passes are the survivors aborted through the search layer's
// cooperative Abort hook.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clockroute/api"
	"clockroute/internal/coordinator"
	"clockroute/internal/core"
	"clockroute/internal/faultpoint"
	"clockroute/internal/planwire"
	"clockroute/internal/resultcache"
	"clockroute/internal/tech"
	"clockroute/internal/telemetry"
)

// Config tunes a Server. The zero value yields a usable service with the
// defaults documented per field.
type Config struct {
	// MaxInFlight caps concurrently executing routing requests
	// (default 2×GOMAXPROCS).
	MaxInFlight int
	// MaxQueue caps requests waiting for an in-flight slot; a request
	// arriving with the queue full is shed with 429 (default MaxInFlight).
	MaxQueue int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps any requested timeout (default 2m).
	MaxTimeout time.Duration
	// MaxWorkers clamps a PlanRequest's workers field (default GOMAXPROCS).
	MaxWorkers int
	// CacheMaxBytes, when positive, enables the content-addressed result
	// cache with this byte budget: requests are reduced to their canonical
	// problem hash and identical problems are served from memory without a
	// search (see internal/resultcache and the api package's Result cache
	// doc). Zero disables the cache — cmd/routed enables 64 MiB by default.
	CacheMaxBytes int64
	// CacheDir, when set alongside an enabled cache, is the directory of
	// persistent snapshot segments: LoadCache warms the cache from it at
	// boot and SnapshotCache (POST /v1/cache/snapshot) appends to it.
	CacheDir string
	// Metrics receives the service counters and, as a telemetry sink, the
	// search and net span events (default telemetry.Default()).
	Metrics *telemetry.Metrics
	// Sink, when non-nil, additionally receives every span event (e.g. a
	// JSONL trace); it is fanned in next to Metrics.
	Sink telemetry.Sink
	// SlowThreshold, when positive, arms the slow-request flight recorder:
	// requests whose wall time reaches it have their full span tree
	// retained for GET /debug/slow and persisted to Sink as a slow_request
	// event. Zero disables recording (cmd/routed defaults to 500ms via
	// -slow-ms).
	SlowThreshold time.Duration
	// Coordinator, when non-nil, turns this instance into the sharding
	// front end of a cluster: /v1/plan requests, buffered and streamed
	// alike, are distributed across its backends (see internal/coordinator)
	// and never touch this instance's own result cache, while /v1/route
	// keeps routing in-process. /healthz then reports each backend's
	// circuit state. The caller owns the coordinator's lifecycle
	// (Start/Close).
	Coordinator *coordinator.Coordinator
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = c.MaxInFlight
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.Default()
	}
	return c
}

const (
	// panicDegradeThreshold is the number of contained handler panics
	// after which /healthz reports "degraded": the process stays up and
	// keeps serving, but an orchestrator watching health can rotate the
	// instance out.
	panicDegradeThreshold = 3
	// slowKeep is the flight recorder's ring size: the slow-request trees
	// /debug/slow can show.
	slowKeep = 32
)

// Server implements the service. Build one with New and mount Handler on
// any http.Server (cmd/routed does exactly that).
type Server struct {
	cfg  Config
	sink telemetry.Sink // metrics + extra sink, fanned out once
	tech *tech.Tech     // the technology every search runs against: CongPan70nm

	// cache memoizes results by canonical problem hash; nil when disabled.
	cache *resultcache.Cache

	// flightRec retains slow-request span trees for /debug/slow; nil (all
	// methods nil-safe) when Config.SlowThreshold is zero.
	flightRec *telemetry.FlightRecorder

	sem    chan struct{} // in-flight slots
	queued chan struct{} // wait-queue slots

	// base is canceled when a drain deadline expires, aborting every
	// in-flight search through the context threaded into core.Route.
	base       context.Context
	cancelBase context.CancelFunc

	mu       sync.Mutex // guards draining against the in-flight WaitGroup
	draining bool
	inflight sync.WaitGroup

	mux *http.ServeMux

	// panics counts handler panics contained by the recovery middleware;
	// per-instance (unlike the shared Metrics registry) so the degraded
	// health threshold is this server's own history.
	panics atomic.Int64

	// testHookAdmitted, when set, runs after a request wins an in-flight
	// slot and before its search starts — tests use it to hold requests
	// in-flight deterministically.
	testHookAdmitted func()
}

// New builds a Server from cfg (see Config for defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		sink:       telemetry.Multi(cfg.Metrics, cfg.Sink),
		tech:       tech.CongPan70nm(),
		sem:        make(chan struct{}, cfg.MaxInFlight),
		queued:     make(chan struct{}, cfg.MaxQueue),
		base:       base,
		cancelBase: cancel,
	}
	if cfg.CacheMaxBytes > 0 {
		s.cache = resultcache.New(resultcache.Config{
			MaxBytes: cfg.CacheMaxBytes,
			Metrics:  cfg.Metrics,
		})
	}
	if cfg.SlowThreshold > 0 {
		s.flightRec = telemetry.NewFlightRecorder(cfg.SlowThreshold, slowKeep, cfg.Sink, cfg.Metrics)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/route", s.handleRoute)
	s.mux.HandleFunc("POST /v1/plan", s.handlePlan)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/cache/stats", s.handleCacheStats)
	s.mux.HandleFunc("POST /v1/cache/snapshot", s.handleCacheSnapshot)
	s.mux.HandleFunc("POST /v1/cache/load", s.handleCacheLoad)
	if s.flightRec != nil {
		s.mux.Handle("GET /debug/slow", s.flightRec)
	}
	return s
}

// FlightRecorder returns the slow-request flight recorder, nil when
// Config.SlowThreshold is zero. cmd/routed mounts it on the metrics
// server so /debug/slow is reachable on the private port too.
func (s *Server) FlightRecorder() *telemetry.FlightRecorder { return s.flightRec }

// Handler returns the service's HTTP handler, wrapped in the trace
// middleware (trace context, X-Request-Id echo, span recording — see
// traced) and the panic recovery middleware: a panicking handler yields
// a 500 with the panic classified as core.ErrInternal, increments
// request_panics, and leaves the process (and every other in-flight
// request) untouched. traced sits outermost so even panicking requests
// carry trace headers and land in the flight recorder.
func (s *Server) Handler() http.Handler { return s.traced(s.recovered(s.mux)) }

// recovered is the service's outermost containment boundary.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler { //nolint:errorlint // sentinel by identity, per net/http contract
				panic(v) // deliberate connection abort, not a fault
			}
			s.panics.Add(1)
			s.cfg.Metrics.RequestPanics.Inc()
			// The handlers write their response only as the final step, so
			// a panicking request has not started its body and a clean 500
			// can still go out.
			s.fail(w, http.StatusInternalServerError, core.NewInternalError(v, debug.Stack()))
		}()
		next.ServeHTTP(w, r)
	})
}

// Panics reports the number of handler panics this server has contained.
func (s *Server) Panics() int64 { return s.panics.Load() }

// Degraded reports whether contained panics have reached
// panicDegradeThreshold: the instance keeps serving but should be
// rotated out.
func (s *Server) Degraded() bool { return s.panics.Load() >= panicDegradeThreshold }

// InFlight reports the number of requests currently holding a slot.
func (s *Server) InFlight() int { return len(s.sem) }

// Queued reports the number of requests waiting for a slot.
func (s *Server) Queued() int { return len(s.queued) }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: new requests are refused with 503
// immediately, in-flight requests run to completion, and if ctx expires
// first the remaining searches are aborted cooperatively (their clients
// get 503 with the abort cause). Shutdown returns once every request has
// finished, with ctx.Err() when the drain deadline forced aborts.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelBase() // abort survivors through the search Abort hook
		<-done
	}
	s.cancelBase()
	return err
}

// enter registers a request with the drain accounting, refusing when a
// shutdown has begun. The caller must invoke the returned func exactly
// once (and only when ok).
func (s *Server) enter() (leave func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false
	}
	s.inflight.Add(1)
	return s.inflight.Done, true
}

// errSaturated is reported when both the in-flight slots and the wait
// queue are full — the 429 path.
var errSaturated = errors.New("server: saturated: in-flight and queue limits reached")

// admit acquires an in-flight slot, waiting in the bounded queue if
// necessary. It sheds with errSaturated when the queue is full, and gives
// up when ctx (the client connection) or the drain context fires.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	default:
	}
	select {
	case s.queued <- struct{}{}:
	default:
		return nil, errSaturated
	}
	defer func() { <-s.queued }()
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.base.Done():
		return nil, s.base.Err()
	}
}

// requestTimeout resolves a request's timeout_ms against the configured
// default and ceiling.
func (s *Server) requestTimeout(timeoutMS int) time.Duration {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// requestContext derives the search context: the client's context bounded
// by the resolved timeout, additionally canceled when a drain deadline
// forces aborts.
func (s *Server) requestContext(parent context.Context, timeoutMS int) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(parent, s.requestTimeout(timeoutMS))
	stop := context.AfterFunc(s.base, cancel)
	return ctx, func() { stop(); cancel() }
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	// Always HTTP 200 with the state in the body: "degraded" (panic
	// threshold crossed — still serving, but the instance should be
	// rotated) is overridden by "draining" (shutdown in progress), which
	// is the terminal state either way.
	status := "ok"
	if s.Degraded() {
		status = "degraded"
	}
	if s.Draining() {
		status = "draining"
	}
	body := map[string]any{
		"status":         status,
		"in_flight":      s.InFlight(),
		"queued":         s.Queued(),
		"request_panics": s.Panics(),
	}
	if s.flightRec != nil {
		body["slow_requests"] = s.flightRec.Slow()
		body["slo_ms"] = float64(s.flightRec.SLO()) / float64(time.Millisecond)
	}
	if c := s.cfg.Coordinator; c != nil {
		body["backends"] = c.States()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	m := s.cfg.Metrics
	m.Requests.Inc()
	defer s.observeLatency(start)
	rec := telemetry.RecorderFromContext(r.Context())
	tc, _ := telemetry.TraceFromContext(r.Context())
	rid := telemetry.RequestIDFromContext(r.Context())

	endDecode := rec.Phase("decode")
	// server.decode: chaos injection at the request boundary — error mode
	// maps to a 400 like any malformed body, panic mode exercises the
	// recovery middleware (500, request_panics, process stays up).
	if err := faultpoint.Check("server.decode"); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	req, err := api.DecodeRouteRequest(r.Body)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	endDecode()

	endCanonical := rec.Phase("canonical")
	canon, err := api.Canonicalize(req)
	if err != nil {
		// Unreachable after a successful decode, but the cache must never
		// key on a problem it could not canonicalize.
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	hash := canon.Hash()
	reqMode := req.Cache.EffectiveMode() // what the client asked for
	mode := s.cacheMode(req.Cache)       // bypass when the cache is off
	endCanonical()
	rec.SetAttr("problem_hash", hash.Hex())
	rec.SetAttr("algo", req.Kind)

	leave, ok := s.enter()
	if !ok {
		s.fail(w, http.StatusServiceUnavailable, errors.New("server: shutting down"))
		return
	}
	defer leave()

	endCache := rec.Phase("cache")

	// Conditional request: the ETag is the problem's content address and
	// routing is deterministic, so a matching If-None-Match means the
	// client already holds exactly the response this search would produce
	// — even when the cache itself is cold or disabled. Explicit bypass or
	// refresh opts out.
	if reqMode == api.CacheModeDefault && ifNoneMatchHits(r.Header.Get("If-None-Match"), hash.ETag()) {
		m.CacheHits.Inc()
		endCache()
		endEncode := rec.Phase("encode")
		w.Header().Set("ETag", hash.ETag())
		w.Header().Set("X-Cache", "hit")
		w.WriteHeader(http.StatusNotModified)
		endEncode()
		return
	}

	// Warm hit: serve from memory without admission control or a search —
	// hits must stay cheap even when the search slots are saturated.
	if mode == api.CacheModeDefault {
		if enc, ok := s.cachedRoute(hash); ok {
			endCache()
			endEncode := rec.Phase("encode")
			w.Header().Set("ETag", hash.ETag())
			w.Header().Set("X-Cache", "hit")
			writeRoute(w, enc, true)
			endEncode()
			return
		}
	}
	endCache()

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

	prob, coreReq, err := planwire.BuildRoute(req, s.tech)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	coreReq.Options.Telemetry = s.requestSink(rec, tc, rid)
	coreReq.Options.MaxConfigs = req.MaxConfigs
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()

	endSearch := rec.Phase("search")
	// The algo pprof label joins the middleware's request_id label on this
	// goroutine, so CPU profiles attribute search time per request and
	// algorithm.
	var res *core.Result
	pprof.Do(ctx, pprof.Labels("algo", req.Kind), func(ctx context.Context) {
		res, err = core.Route(ctx, prob, coreReq)
	})
	var entry []byte
	var size int64
	if err == nil {
		resp := routeResponse(res, prob.Grid)
		resp.ProblemHash = hash.Hex()
		entry, size, err = newEntry(envRoute, resp)
	}
	if err != nil {
		// A failed search (infeasible, aborted, contained panic) stores
		// nothing.
		s.failSearch(w, err)
		return
	}
	if mode != api.CacheModeBypass {
		s.cache.Put(cacheKey(hash, cacheDomainRoute), entry, size)
	}
	endSearch()
	endEncode := rec.Phase("encode")
	w.Header().Set("ETag", hash.ETag())
	w.Header().Set("X-Cache", "miss")
	writeRoute(w, entry[1:], false)
	endEncode()
}

func xcache(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// ifNoneMatchHits matches an If-None-Match header value against the
// problem-hash ETag per RFC 9110: a comma-separated list of entity tags,
// each optionally weak-prefixed (W/ — weak comparison suffices for a 304),
// or the wildcard *. An absent header never matches.
func ifNoneMatchHits(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, tag := range strings.Split(header, ",") {
		tag = strings.TrimSpace(tag)
		if tag == "*" {
			return true
		}
		tag = strings.TrimPrefix(tag, "W/")
		if tag == etag {
			return true
		}
	}
	return false
}

// observeLatency records one request's wall time on the latency histogram.
func (s *Server) observeLatency(start time.Time) {
	if h := s.cfg.Metrics.RequestLatencyMS; h != nil {
		h.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
}

// refuse maps an admission failure onto its status: saturation is 429 with
// a Retry-After hint, a drain is 503, and a client that went away gets the
// (unsendable) 504.
func (s *Server) refuse(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errSaturated):
		s.cfg.Metrics.Shed.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.requestTimeout(0))))
		s.writeError(w, http.StatusTooManyRequests, err)
	case s.base.Err() != nil || s.Draining():
		s.fail(w, http.StatusServiceUnavailable, errors.New("server: shutting down"))
	default:
		s.fail(w, http.StatusGatewayTimeout, err)
	}
}

// failSearch maps a search error onto its status: infeasibility is 422,
// an abort is 503 during drain and 504 otherwise, a contained panic is
// 500 (counted like a middleware-recovered one — it is the same class of
// fault, just caught deeper), anything else 500.
func (s *Server) failSearch(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, core.ErrNoPath):
		s.fail(w, http.StatusUnprocessableEntity, err)
	case errors.Is(err, core.ErrInternal):
		s.panics.Add(1)
		s.cfg.Metrics.RequestPanics.Inc()
		s.fail(w, http.StatusInternalServerError, err)
	case errors.Is(err, core.ErrAborted):
		s.cfg.Metrics.RequestAborts.Inc()
		if s.base.Err() != nil {
			s.fail(w, http.StatusServiceUnavailable, fmt.Errorf("server: shutting down: %w", err))
			return
		}
		s.fail(w, http.StatusGatewayTimeout, err)
	default:
		s.fail(w, http.StatusInternalServerError, err)
	}
}

// fail writes an error status, counting it as a request error.
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.cfg.Metrics.RequestErrors.Inc()
	s.writeError(w, status, err)
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	writeWire(w, status, &api.ErrorResponse{Error: err.Error()})
}

// writeWire writes an api body through the wire codec. The status is out
// before the body: a failed write (the client left) or an unencodable
// float leaves no one to tell.
func writeWire[T api.Wire](w http.ResponseWriter, status int, v *T) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = api.EncodeJSON(w, v)
}

// writeRoute writes a 200 body from a stored /v1/route encoding, with
// "cached":true spliced in when it is served as a hit.
func writeRoute(w http.ResponseWriter, enc []byte, cached bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = api.WriteLine(w, func(b []byte) []byte {
		if cached {
			return api.AppendCached(b, enc)
		}
		return append(b, enc...)
	})
}

// writeJSON writes an admin body (health, cache stats), which are maps
// rather than api types.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds suggests a retry delay from the default request
// timeout: long enough that a retry likely finds a free slot, never zero.
func retryAfterSeconds(d time.Duration) int {
	sec := int(d / (4 * time.Second))
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return sec
}
