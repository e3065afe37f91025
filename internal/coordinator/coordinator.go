// Package coordinator is the sharding front end of the routing cluster: it
// consumes a /v1/plan net by net (the server's plan pipeline hands it both
// wire forms), shards the nets across N backend workers by consistent
// hashing on their canonical problem hash — each exchange with a backend
// is one NDJSON stream — and merges the results back in completion order
// with exact aggregate statistics.
//
// A plan runs in two layers. The scheduling core (sched, sched.go) is
// plain state: where each net is, which exchange each backend has open,
// which lines went out and what the clean trailers counted. Its methods
// are the plan's events — add a net, claim one for an upload, record an
// answer, finish an exchange, route a net in-process, cancel, end the
// input — and each takes the time as an argument; none blocks, starts a
// goroutine, does I/O or writes a line. The shell (plan, this file) holds
// one mutex and one sync.Cond per plan, runs each exchange as one
// client.PlanStream goroutine, and reaches the core only through
// plan.do, which locks, steps, broadcasts and unlocks, and then starts
// exchanges, writes lines and routes nets in-process outside the lock. A
// seeded simulator in the package's tests drives the core through
// thousands of random schedules with no goroutines at all.
//
// The robustness ladder, in order of escalation:
//
//  1. Per-exchange retry/backoff — each backend exchange is a
//     client.PlanStream, so pre-open refusals (429 shed, 503 drain) replay
//     with jittered backoff and the Retry-After floor for free.
//  2. Circuit breakers — consecutive exchange failures open a per-backend
//     circuit (closed → open → half-open with a single probe), taking the
//     backend out of the ring walk until it proves itself again.
//  3. Failover re-routing — every net of a failed exchange, answered or
//     not, re-routes to the next healthy backend on its hash ring walk;
//     duplicate answers are deduplicated at emission, which is also what
//     keeps the aggregate stats exact (each net's work is counted from
//     exactly one clean trailer).
//  4. Local degradation — a net that no healthy backend will take is
//     routed in-process through the same planner the backends run, so a
//     coordinator alone still answers correctly, just slower.
//
// The exactness contract: because routing is deterministic in a net's
// canonical problem and the engine is bit-identical at any worker count, a
// sharded plan equals the serial plan byte-for-byte (elapsed_ns aside)
// under every one of those ladder steps — proven by the chaos battery in
// internal/chaos. The chaos drills arm the coord.dial, coord.send, and
// coord.recv failpoints (optionally suffixed ".<backend index>" to target
// one backend) through internal/faultpoint.
package coordinator

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clockroute/api"
	"clockroute/client"
	"clockroute/internal/engine"
	"clockroute/internal/faultpoint"
	"clockroute/internal/planner"
	"clockroute/internal/planwire"
	"clockroute/internal/tech"
	"clockroute/internal/telemetry"
)

// Config tunes a Coordinator. Backends is required; everything else has
// the defaults documented per field.
type Config struct {
	// Backends are the base URLs of the routing workers, e.g.
	// "http://10.0.0.1:8080". Order fixes the backend indices used by the
	// targeted failpoints (coord.dial.0 hits Backends[0]).
	Backends []string
	// InFlight bounds the nets queued on a backend's open exchange awaiting
	// upload; while that queue is full the input waits, which backpressures
	// the stream's decode loop and, through TCP, the client (default 32).
	// Failover places past the bound: its nets were admitted once. The
	// backend's own bounded decode window limits uploaded-but-unanswered
	// nets.
	InFlight int
	// FailureThreshold is the consecutive exchange failures that open a
	// backend's circuit (default 3).
	FailureThreshold int
	// Cooldown is how long an open circuit rejects before half-opening for
	// a single probe (default 5s).
	Cooldown time.Duration
	// ProbeInterval, when positive, runs a background prober that GETs
	// /healthz on non-closed backends, closing circuits without risking
	// live traffic. Zero disables it; half-open probes then ride on real
	// exchanges.
	ProbeInterval time.Duration
	// Metrics receives coord_failovers and coord_degraded_local (default
	// telemetry.Default()).
	Metrics *telemetry.Metrics
	// ClientOptions is appended to each backend client's options — tests
	// shorten the retry budget here.
	ClientOptions []client.Option
}

// backend is one routing worker: its client, circuit, and latency series.
type backend struct {
	idx int
	url string
	cli *client.Client
	br  *breaker
	lat *telemetry.Histogram

	lastErr atomic.Pointer[string] // most recent exchange failure, for /healthz
}

func (b *backend) setErr(err error) {
	msg := err.Error()
	b.lastErr.Store(&msg)
}

func (b *backend) lastError() string {
	if msg := b.lastErr.Load(); msg != nil {
		return *msg
	}
	return ""
}

// Coordinator shards plans across backends. Build with New, wire
// into server.Config, optionally Start the health prober, and Close on
// shutdown.
type Coordinator struct {
	cfg      Config
	ring     *ring
	backends []*backend
	brs      []*breaker // backends[i].br, the scheduling core's view
	m        *telemetry.Metrics
	tech     *tech.Tech // the local degraded path's model: CongPan70nm, as on every backend

	hc        *http.Client // healthz probes
	probeStop chan struct{}
	probeWG   sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once
}

// New builds a Coordinator over cfg.Backends (at least one, all distinct).
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("coordinator: no backends configured")
	}
	urls := make([]string, len(cfg.Backends))
	seen := make(map[string]bool)
	for i, u := range cfg.Backends {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("coordinator: empty backend URL at index %d", i)
		}
		if seen[u] {
			return nil, fmt.Errorf("coordinator: duplicate backend URL %q", u)
		}
		seen[u] = true
		urls[i] = u
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.Default()
	}
	if cfg.InFlight <= 0 {
		cfg.InFlight = 32
	}
	c := &Coordinator{
		cfg:       cfg,
		ring:      newRing(urls),
		m:         cfg.Metrics,
		tech:      tech.CongPan70nm(),
		hc:        &http.Client{Timeout: 2 * time.Second},
		probeStop: make(chan struct{}),
	}
	for i, u := range urls {
		br := newBreaker(cfg.FailureThreshold, cfg.Cooldown)
		c.brs = append(c.brs, br)
		c.backends = append(c.backends, &backend{
			idx: i,
			url: u,
			cli: client.New(u, cfg.ClientOptions...),
			br:  br,
			lat: telemetry.NewHistogram(telemetry.ExpBuckets(1, 2, 12)...),
		})
	}
	return c, nil
}

// BackendState is one backend's health as reported through /healthz.
type BackendState struct {
	URL      string `json:"url"`
	State    string `json:"state"` // closed | open | half-open
	Failures int    `json:"failures"`
	// LastError is the most recent exchange or probe failure, kept after
	// recovery as a breadcrumb.
	LastError string `json:"last_error,omitempty"`
}

// States reports every backend's circuit state in index order.
func (c *Coordinator) States() []BackendState {
	out := make([]BackendState, len(c.backends))
	now := time.Now()
	for i, be := range c.backends {
		out[i] = BackendState{URL: be.url, State: be.br.State(now), Failures: be.br.Failures(), LastError: be.lastError()}
	}
	return out
}

// Start launches the background health prober when ProbeInterval is set.
// Safe to call more than once.
func (c *Coordinator) Start() {
	if c.cfg.ProbeInterval <= 0 {
		return
	}
	c.startOnce.Do(func() {
		c.probeWG.Add(1)
		go c.probeLoop()
	})
}

// Close stops the health prober. Safe to call more than once; in-flight
// Plan calls are unaffected (their lifecycle is their context's).
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.probeStop) })
	c.probeWG.Wait()
	c.hc.CloseIdleConnections()
}

func (c *Coordinator) probeLoop() {
	defer c.probeWG.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.probeStop:
			return
		case <-t.C:
			for _, be := range c.backends {
				if be.br.State(time.Now()) != StateClosed {
					c.probeOne(be)
				}
			}
		}
	}
}

// probeOne spends the circuit's half-open grant on a cheap GET /healthz
// instead of a live exchange: a 200 closes the circuit before any real
// net is risked on the backend.
func (c *Coordinator) probeOne(be *backend) {
	// The grant token is unneeded: this probe always resolves, with
	// Success or Failure, before probeOne returns.
	if ok, _ := be.br.Allow(time.Now()); !ok {
		return
	}
	resp, err := c.hc.Get(be.url + "/healthz")
	if err != nil {
		be.br.Failure(time.Now())
		be.setErr(err)
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		be.br.Success()
	} else {
		be.br.Failure(time.Now())
		be.setErr(fmt.Errorf("coordinator: healthz probe: status %d", resp.StatusCode))
	}
}

// checkPoint hits a coordinator failpoint twice: once by plain site name
// (coord.dial) and once suffixed with the backend index (coord.dial.0), so
// a drill can hit every backend or exactly one.
func checkPoint(site string, idx int) error {
	if err := faultpoint.Check(site); err != nil {
		return err
	}
	return faultpoint.Check(site + "." + strconv.Itoa(idx))
}

// Net is one decoded, validated, content-addressed net of a plan — the
// server's plan pipeline canonicalizes and hashes before handing nets over
// (to the coordinator or to the in-process planner), so the router never
// re-validates.
type Net struct {
	Spec api.NetSpec
	Hash api.ProblemHash
}

// plan is the shell around one Plan call's sched: the one lock and cond
// every step goes through, the goroutines that run its exchanges, and the
// in-process planner of the degraded path, built on first use by whoever
// holds the core's in-process slot.
type plan struct {
	c    *Coordinator
	ctx  context.Context
	hdr  *api.PlanStreamHeader
	emit func(api.NetResult)

	mu   sync.Mutex
	cond *sync.Cond
	s    *sched
	wg   sync.WaitGroup // exchange goroutines

	local    *planner.Planner
	localErr error
}

// Plan shards the nets arriving on nets across the backends, calling emit
// for every finished net in completion order (each net exactly once, even
// when failover re-routes an already-answered net), and returns the
// aggregate batch statistics once nets is closed and every net has
// settled. workers is the resolved worker count the equivalent serial plan
// would report; it only affects the returned stats' Workers field.
//
// Cancellation is cooperative: when ctx fires, in-flight exchanges are
// torn down and every unsettled net is emitted as an aborted failure, so
// the caller always gets one line per net (the drain contract).
func (c *Coordinator) Plan(ctx context.Context, hdr *api.PlanStreamHeader, workers int, nets <-chan Net, emit func(api.NetResult)) api.PlanStats {
	start := time.Now()
	p := &plan{c: c, ctx: ctx, hdr: hdr, emit: emit, s: newSched(c.ring, c.brs, c.cfg.InFlight)}
	p.cond = sync.NewCond(&p.mu)
	for n := range nets {
		p.do(func(s *sched, now time.Time) bool { return s.add(n, now) })
	}
	var st api.PlanStats
	var received int
	p.do(func(s *sched, _ time.Time) bool { s.endInput(); return true })
	p.do(func(s *sched, _ time.Time) bool { st, received = s.stats, s.received; return s.done() })
	p.wg.Wait()
	if received == 0 {
		// An empty stream reports the zero stats an empty serial plan would.
		return api.PlanStats{}
	}
	st.Workers = engine.Workers(workers, received)
	st.ElapsedNS = time.Since(start).Nanoseconds()
	return st
}

// do is the shell's one way into the core. Under the plan's lock it folds
// a canceled context into the core and runs step, sleeping on the cond
// while step reports it must wait; then it wakes every waiter, unlocks,
// and does what the step asked for: start exchanges, write lines, route
// nets in-process. Every step ends in a broadcast, so no waiter can miss
// the change it waits for. A canceled context needs no wake-up of its
// own: whatever a waiter waits for is an exchange or an in-process route
// under way, whose client call or search returns on the context and
// steps.
func (p *plan) do(step func(s *sched, now time.Time) bool) {
	p.mu.Lock()
	for {
		if err := context.Cause(p.ctx); err != nil {
			p.s.cancel(err)
		}
		if step(p.s, time.Now()) {
			break
		}
		p.cond.Wait()
	}
	fx := p.s.take()
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, ex := range fx.start {
		p.wg.Add(1)
		go p.run(ex)
	}
	for _, nr := range fx.emit {
		p.emit(nr)
	}
	if fx.failovers > 0 {
		p.c.m.CoordFailovers.Add(fx.failovers)
	}
	for _, j := range fx.local {
		p.routeLocal(j)
	}
}

// run carries ex through its client call and reports how it ended.
func (p *plan) run(ex *exchange) {
	defer p.wg.Done()
	be := p.c.backends[ex.be]
	st, err := p.exchange(ex, be)
	var blame error
	p.do(func(s *sched, now time.Time) bool { blame = s.finish(ex, st, err, now); return true })
	if blame != nil {
		be.setErr(blame)
	}
}

// exchange runs ex as one client.PlanStream, so a 429 or 503 before the
// stream opens is retried with backoff: the upload claims ex's nets one
// by one, and each result line is recorded as it arrives. The coord.dial,
// coord.send and coord.recv failpoints fail it at those three points, and
// a panic there (their panic mode) is contained as a failure of ex.
func (p *plan) exchange(ex *exchange, be *backend) (st *api.PlanStats, err error) {
	defer contain(&err)
	if err := checkPoint("coord.dial", be.idx); err != nil {
		return nil, err
	}
	upload := func(send func(api.NetSpec) error) (err error) {
		defer contain(&err)
		for i := 0; ; i++ {
			var j *job
			p.do(func(s *sched, now time.Time) bool {
				var wait bool
				j, wait = s.claim(ex, i, now)
				return !wait
			})
			if j == nil {
				return nil
			}
			if err := checkPoint("coord.send", be.idx); err != nil {
				return err
			}
			if err := send(j.net.Spec); err != nil {
				return err
			}
		}
	}
	return be.cli.PlanStream(p.ctx, p.hdr, upload, func(nr api.NetResult) (err error) {
		if err := checkPoint("coord.recv", be.idx); err != nil {
			return err
		}
		var rtt time.Duration
		p.do(func(s *sched, now time.Time) bool { rtt, err = s.answer(ex, nr, now); return true })
		if err == nil {
			be.lat.Observe(float64(rtt) / float64(time.Millisecond))
		}
		return err
	})
}

// contain turns a panic into *err.
func contain(err *error) {
	if v := recover(); v != nil {
		*err = fmt.Errorf("coordinator: contained panic: %v\n%s", v, debug.Stack())
	}
}

// routeLocal is the bottom of the degradation ladder: j routes in-process
// through the same planner/conversion code the backends run, one net at a
// time (degraded mode trades throughput for availability), and
// stats-exact, because per-net search statistics are deterministic
// whether or not the net shares a batch with others.
func (p *plan) routeLocal(j *job) {
	p.c.m.CoordDegradedLocal.Inc()
	p.do(func(s *sched, _ time.Time) bool { return s.takeLocal() })
	if p.local == nil && p.localErr == nil {
		p.local, p.localErr = planwire.NewStreamPlanner(&p.hdr.Grid, p.c.tech, nil)
	}
	nr := api.NetResult{Name: j.net.Spec.Name, ProblemHash: j.net.Hash.Hex()}
	st := api.PlanStats{NetsFailed: 1}
	if p.localErr != nil {
		nr.Error = p.localErr.Error()
	} else {
		specs := make(chan planner.NetSpec, 1)
		specs <- planwire.SpecFromNet(&j.net.Spec)
		close(specs)
		pst := p.local.RunStream(p.ctx, 1, specs, func(r planner.NetResult) {
			nr = planwire.NetResultOnWire(&r, p.local.Grid())
			nr.ProblemHash = j.net.Hash.Hex()
		})
		st = planwire.PlanStatsOnWire(pst)
	}
	p.do(func(s *sched, _ time.Time) bool { s.answerLocal(nr, st); return true })
}
