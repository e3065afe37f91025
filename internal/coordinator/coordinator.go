// Package coordinator is the sharding front end of the routing cluster: it
// consumes a /v1/plan net by net (the server's plan pipeline hands it both
// wire forms), shards the nets across N backend workers by consistent
// hashing on their canonical problem hash — each exchange is an NDJSON
// stream — and merges the results back in completion order with correct
// aggregate statistics.
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
	// InFlight bounds the nets queued per backend awaiting upload; a full
	// queue blocks the dispatcher, which backpressures the stream's decode
	// loop and, through TCP, the client (default 32). The backend's own
	// bounded decode window limits uploaded-but-unanswered nets.
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
	// Replicas is the virtual-node count per backend on the hash ring
	// (default 64).
	Replicas int
	// Tech is the technology the local degraded path routes against
	// (default CongPan70nm — must match the backends').
	Tech *tech.Tech
	// Metrics receives coord_failovers and coord_degraded_local (default
	// telemetry.Default()).
	Metrics *telemetry.Metrics
	// ClientOptions is appended to each backend client's options — tests
	// shorten the retry budget here.
	ClientOptions []client.Option
	// Now is the clock the circuit breakers read (default time.Now).
	Now func() time.Time
}

// backend is one routing worker: its client, circuit, and latency series.
type backend struct {
	idx int
	url string
	cli *client.Client
	br  *breaker
	lat *telemetry.Histogram

	mu      sync.Mutex
	lastErr string // most recent exchange failure, for /healthz
}

func (b *backend) setErr(err error) {
	b.mu.Lock()
	b.lastErr = err.Error()
	b.mu.Unlock()
}

func (b *backend) lastError() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastErr
}

// Coordinator shards plans across backends. Build with New, wire
// into server.Config, optionally Start the health prober, and Close on
// shutdown.
type Coordinator struct {
	cfg      Config
	ring     *ring
	backends []*backend
	m        *telemetry.Metrics

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
	if cfg.Tech == nil {
		cfg.Tech = tech.CongPan70nm()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.Default()
	}
	if cfg.InFlight <= 0 {
		cfg.InFlight = 32
	}
	c := &Coordinator{
		cfg:       cfg,
		ring:      newRing(urls, cfg.Replicas),
		m:         cfg.Metrics,
		hc:        &http.Client{Timeout: 2 * time.Second},
		probeStop: make(chan struct{}),
	}
	for i, u := range urls {
		c.backends = append(c.backends, &backend{
			idx: i,
			url: u,
			cli: client.New(u, cfg.ClientOptions...),
			br:  newBreaker(cfg.FailureThreshold, cfg.Cooldown, cfg.Now),
			lat: telemetry.NewHistogram(telemetry.ExpBuckets(1, 2, 12)...),
		})
	}
	return c, nil
}

// Backends returns the configured backend URLs in index order.
func (c *Coordinator) Backends() []string {
	out := make([]string, len(c.backends))
	for i, be := range c.backends {
		out[i] = be.url
	}
	return out
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
	for i, be := range c.backends {
		out[i] = BackendState{URL: be.url, State: be.br.State(), Failures: be.br.Failures(), LastError: be.lastError()}
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
				if be.br.State() != StateClosed {
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
	if ok, _ := be.br.Allow(); !ok {
		return
	}
	resp, err := c.hc.Get(be.url + "/healthz")
	if err != nil {
		be.br.Failure()
		be.setErr(err)
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		be.br.Success()
	} else {
		be.br.Failure()
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

// job is one net's journey through the cluster: which backends it has
// already been offered to, and when its current upload went out.
type job struct {
	spec      api.NetSpec
	hash      api.ProblemHash
	attempted []bool    // per backend index
	sentAt    time.Time // last upload, for the per-backend latency series
	// probe is the half-open grant this job's admission consumed, if any.
	// It travels with the job until an exchange claims it (claim moves it
	// onto the worker, whose Success/Failure/ReturnProbe resolves it); a
	// job that never reaches an exchange hands the grant back itself.
	probe uint64
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
	s := &session{
		c:       c,
		ctx:     ctx,
		hdr:     hdr,
		emitFn:  emit,
		start:   time.Now(),
		emitted: make(map[string]bool),
		workers: make(map[int]*shardWorker),
	}
	for n := range nets {
		j := &job{spec: n.Spec, hash: n.Hash, attempted: make([]bool, len(c.backends))}
		s.mu.Lock()
		s.received++
		s.outstanding++
		s.mu.Unlock()
		s.dispatch(j)
	}
	s.inputDone.Store(true)
	// Wake every worker parked in claim()/waitWork(): one that last
	// observed inputDone as false would otherwise sleep forever — its
	// exchange never closes its upload, so its jobs never settle, and
	// maybeDone (which only wakes workers once outstanding hits zero)
	// can never be the one to rouse it. Snapshotting after the Store
	// covers every waiter that missed the flag; workers spawned later
	// re-check it before blocking.
	s.wakeWorkers()
	s.maybeDone()
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.received == 0 {
		// An empty stream reports the zero stats an empty serial plan would.
		return api.PlanStats{}
	}
	st := s.stats
	st.Workers = engine.Workers(workers, s.received)
	st.ElapsedNS = time.Since(s.start).Nanoseconds()
	return st
}

// session is one Plan call's state.
type session struct {
	c      *Coordinator
	ctx    context.Context
	hdr    *api.PlanStreamHeader
	emitFn func(api.NetResult)
	start  time.Time

	inputDone atomic.Bool // no more nets will arrive
	done      atomic.Bool // inputDone && every job settled

	mu          sync.Mutex
	emitted     map[string]bool
	stats       api.PlanStats
	outstanding int // jobs not yet settled (stats-accounted)
	received    int
	workers     map[int]*shardWorker // live worker per backend index
	wg          sync.WaitGroup

	localMu  sync.Mutex
	localPl  *planner.Planner
	localErr error
}

// dispatch routes j to the first untried backend with a willing circuit on
// its ring walk, or locally when there is none. It blocks on the chosen
// backend's bounded queue — that is the backpressure path.
func (s *session) dispatch(j *job) {
	for {
		if s.ctx.Err() != nil {
			s.abortJob(j)
			return
		}
		be := s.pick(j)
		if be == nil {
			s.routeLocal(j)
			return
		}
		if s.workerFor(be).push(j) {
			return
		}
		// The worker died between lookup and push; its circuit has taken
		// the failure, so the next pick moves on (or spawns a successor).
		// A probe grant this pick consumed never reached an exchange —
		// hand it back or the circuit is stuck half-open forever.
		if j.probe != 0 {
			be.br.ReturnProbe(j.probe)
			j.probe = 0
		}
	}
}

// pick walks the ring from j's hash, skipping backends already attempted
// and circuits that refuse. A granted half-open probe is consumed here —
// the exchange that follows is the probe — and its token rides on the
// job until that exchange claims or abandons it.
func (s *session) pick(j *job) *backend {
	var chosen *backend
	s.c.ring.walk(j.hash.Uint64(), func(idx int) bool {
		if j.attempted[idx] {
			return true
		}
		ok, probe := s.c.backends[idx].br.Allow()
		if !ok {
			return true
		}
		chosen = s.c.backends[idx]
		j.probe = probe
		return false
	})
	return chosen
}

// workerFor returns the backend's live worker, spawning one if none.
func (s *session) workerFor(be *backend) *shardWorker {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w := s.workers[be.idx]; w != nil {
		return w
	}
	w := newShardWorker(s, be)
	s.workers[be.idx] = w
	s.wg.Add(1)
	go w.run()
	return w
}

func (s *session) removeWorker(w *shardWorker) {
	s.mu.Lock()
	if s.workers[w.be.idx] == w {
		delete(s.workers, w.be.idx)
	}
	s.mu.Unlock()
}

// emitResult writes nr to the stream unless a net of that name already
// went out (failover re-routes re-answer nets; determinism makes the
// duplicate byte-identical, so dropping it is safe). Reports whether the
// line was emitted.
func (s *session) emitResult(nr api.NetResult) bool {
	s.mu.Lock()
	if s.emitted[nr.Name] {
		s.mu.Unlock()
		return false
	}
	s.emitted[nr.Name] = true
	s.mu.Unlock()
	s.emitFn(nr)
	return true
}

// settle accounts n jobs as finished, folding their exchange's trailer
// stats into the aggregate. Exactly one settle (or abortJob) happens per
// job, which is what makes the totals match a serial run.
func (s *session) settle(n int, st *api.PlanStats) {
	s.mu.Lock()
	if st != nil {
		addStats(&s.stats, st)
	}
	s.outstanding -= n
	s.mu.Unlock()
	s.maybeDone()
}

// abortJob settles j under a canceled session: an aborted-failure line if
// none went out yet, counted as a failed net.
func (s *session) abortJob(j *job) {
	emitted := s.emitResult(api.NetResult{
		Name:        j.spec.Name,
		Error:       fmt.Sprintf("server: net aborted: %v", context.Cause(s.ctx)),
		ProblemHash: j.hash.Hex(),
	})
	s.mu.Lock()
	if emitted {
		s.stats.NetsFailed++
	}
	s.outstanding--
	s.mu.Unlock()
	s.maybeDone()
}

// maybeDone flips the session to done once the input has ended and every
// job has settled, waking every worker so idle ones exit.
func (s *session) maybeDone() {
	if !s.inputDone.Load() {
		return
	}
	s.mu.Lock()
	if s.outstanding != 0 || s.done.Load() {
		s.mu.Unlock()
		return
	}
	s.done.Store(true)
	s.mu.Unlock()
	s.wakeWorkers()
}

// wakeWorkers prods every live worker's condition so blocking waits
// re-check inputDone/done/cancellation.
func (s *session) wakeWorkers() {
	s.mu.Lock()
	ws := make([]*shardWorker, 0, len(s.workers))
	for _, w := range s.workers {
		ws = append(ws, w)
	}
	s.mu.Unlock()
	for _, w := range ws {
		w.wake()
	}
}

// routeLocal is the bottom of the degradation ladder: route j in-process
// through the same planner/conversion code the backends run. Serialized —
// degraded mode trades throughput for availability — and stats-exact,
// because per-net search statistics are deterministic whether or not the
// net shares a batch with others.
func (s *session) routeLocal(j *job) {
	s.c.m.CoordDegradedLocal.Inc()
	s.localMu.Lock()
	defer s.localMu.Unlock()
	if s.localPl == nil && s.localErr == nil {
		s.localPl, s.localErr = planwire.NewStreamPlanner(&s.hdr.Grid, s.c.cfg.Tech, nil)
	}
	if s.localErr != nil {
		if s.emitResult(api.NetResult{Name: j.spec.Name, Error: s.localErr.Error(), ProblemHash: j.hash.Hex()}) {
			s.mu.Lock()
			s.stats.NetsFailed++
			s.mu.Unlock()
		}
		s.mu.Lock()
		s.outstanding--
		s.mu.Unlock()
		s.maybeDone()
		return
	}
	specCh := make(chan planner.NetSpec, 1)
	specCh <- planwire.SpecFromNet(&j.spec)
	close(specCh)
	st, _ := s.localPl.RunStream(s.ctx, 1, specCh, func(r planner.NetResult) {
		nr := planwire.NetResultOnWire(&r, s.localPl.Grid())
		nr.ProblemHash = j.hash.Hex()
		s.emitResult(nr)
	})
	ws := planwire.PlanStatsOnWire(st)
	s.settle(1, &ws)
}

// addStats folds one clean exchange's (or local route's) stats into the
// aggregate. Workers and ElapsedNS are the session's own, set at the end;
// MaxQSize is a high-water mark, so the partition-wide maximum is the max
// of the per-exchange maxima.
func addStats(dst *api.PlanStats, src *api.PlanStats) {
	dst.NetsRouted += src.NetsRouted
	dst.NetsFailed += src.NetsFailed
	dst.TotalConfigs += src.TotalConfigs
	dst.TotalPushed += src.TotalPushed
	dst.TotalPruned += src.TotalPruned
	dst.TotalBoundPruned += src.TotalBoundPruned
	dst.TotalProbeConfigs += src.TotalProbeConfigs
	dst.TotalWaves += src.TotalWaves
	if src.MaxQSize > dst.MaxQSize {
		dst.MaxQSize = src.MaxQSize
	}
}
