package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"clockroute/api"
	"clockroute/client"
	"clockroute/internal/coordinator"
	"clockroute/internal/faultpoint"
	"clockroute/internal/server"
	"clockroute/internal/telemetry"
)

// The cluster battery: a sharding coordinator in front of in-process
// backends, driven through the real HTTP stack under every partition
// drill, with one invariant — the sharded stream's results and aggregate
// stats are byte-identical (elapsed_ns aside) to the same plan routed
// serially on a single server. Drills run with the cache in bypass mode
// so the statistics are exactly additive across exchanges.

func clusterHeader() *api.PlanStreamHeader {
	return &api.PlanStreamHeader{
		Grid:    api.GridSpec{W: 16, H: 16, PitchMM: 0.25},
		Workers: 4,
		Cache:   &api.CacheOptions{Mode: api.CacheModeBypass},
	}
}

// clusterNets builds n nets cycling through a set of distinct problems —
// RBP (equal periods) and GALS (unequal) — with deliberate canonical
// duplicates under different names, so the batch exercises both the hash
// ring's spread and the per-backend memoization.
func clusterNets(n int) []api.NetSpec {
	type shape struct {
		sx, sy, dx, dy int
		srcPS, dstPS   float64
	}
	shapes := []shape{
		{1, 1, 14, 14, 500, 500},
		{2, 1, 13, 12, 400, 600},
		{1, 3, 12, 14, 700, 700},
		{3, 3, 10, 5, 350, 500},
		{5, 2, 2, 11, 500, 500},
		{1, 14, 14, 1, 600, 400},
		{4, 4, 11, 11, 800, 800},
		{2, 7, 13, 7, 450, 900},
		{7, 1, 7, 14, 550, 550},
		{1, 8, 14, 8, 650, 325},
		{6, 6, 9, 12, 750, 750},
		{3, 12, 12, 3, 500, 250},
	}
	nets := make([]api.NetSpec, n)
	for i := range nets {
		s := shapes[i%len(shapes)]
		nets[i] = api.NetSpec{
			Name: fmt.Sprintf("net-%03d", i),
			Src:  api.Point{X: s.sx, Y: s.sy}, Dst: api.Point{X: s.dx, Y: s.dy},
			SrcPeriodPS: s.srcPS, DstPeriodPS: s.dstPS,
		}
	}
	return nets
}

// startBackends brings up n independent routing workers on the real HTTP
// stack. Their caches are off (Config zero value), matching the bypass
// drills' exactness contract.
func startBackends(t *testing.T, n int) []*httptest.Server {
	t.Helper()
	out := make([]*httptest.Server, n)
	for i := range out {
		svc := server.New(server.Config{Metrics: telemetry.NewMetrics(), MaxWorkers: 4})
		out[i] = httptest.NewServer(svc.Handler())
		t.Cleanup(out[i].Close)
	}
	return out
}

func backendURLs(backends []*httptest.Server) []string {
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.URL
	}
	return urls
}

// startFront builds the coordinator and its front-end server. The front's
// own result cache is deliberately enabled: the battery asserts the
// coordinator path never touches it.
func startFront(t *testing.T, urls []string, mut func(*coordinator.Config)) (*server.Server, *httptest.Server, *coordinator.Coordinator, *telemetry.Metrics) {
	t.Helper()
	m := telemetry.NewMetrics()
	cfg := coordinator.Config{
		Backends:         urls,
		FailureThreshold: 1,
		Cooldown:         10 * time.Second,
		Metrics:          m,
		ClientOptions:    []client.Option{client.WithMaxAttempts(2), client.WithBackoff(time.Millisecond)},
	}
	if mut != nil {
		mut(&cfg)
	}
	coord, err := coordinator.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	t.Cleanup(coord.Close)
	svc := server.New(server.Config{
		Metrics:       m,
		MaxWorkers:    4,
		CacheMaxBytes: 1 << 20,
		Coordinator:   coord,
	})
	fts := httptest.NewServer(svc.Handler())
	t.Cleanup(fts.Close)
	return svc, fts, coord, m
}

// runStream drives one streamed plan through url and collects every
// result line in arrival order.
func runStream(t *testing.T, url string, nets []api.NetSpec) ([]api.NetResult, *api.PlanStats, error) {
	t.Helper()
	c := client.New(url, client.WithMaxAttempts(2), client.WithBackoff(time.Millisecond))
	var res []api.NetResult
	stats, err := c.PlanStream(context.Background(), clusterHeader(), client.NetsFromSlice(nets),
		func(nr api.NetResult) error {
			res = append(res, nr)
			return nil
		})
	return res, stats, err
}

// runBuffered sends nets through url as one buffered plan, with the same
// grid, workers, and cache bypass as the streamed drills.
func runBuffered(t *testing.T, url string, nets []api.NetSpec) *api.PlanResponse {
	t.Helper()
	hdr := clusterHeader()
	c := client.New(url, client.WithMaxAttempts(2), client.WithBackoff(time.Millisecond))
	resp, err := c.Plan(context.Background(), &api.PlanRequest{
		Grid: hdr.Grid, Nets: nets, Workers: hdr.Workers, Cache: hdr.Cache,
	})
	if err != nil {
		t.Fatalf("buffered sharded plan: %v", err)
	}
	return resp
}

// assertBufferedEqual checks a buffered plan through the front: its nets
// come back in request order, each equal to the serial result, with equal
// stats.
func assertBufferedEqual(t *testing.T, resp *api.PlanResponse, nets []api.NetSpec, want []string, wantStats api.PlanStats) {
	t.Helper()
	if len(resp.Nets) != len(nets) {
		t.Fatalf("buffered plan returned %d nets, want %d", len(resp.Nets), len(nets))
	}
	for i := range nets {
		if resp.Nets[i].Name != nets[i].Name {
			t.Fatalf("buffered net %d is %q, want %q (request order lost)", i, resp.Nets[i].Name, nets[i].Name)
		}
	}
	assertResultsEqual(t, resp.Nets, want)
	assertStatsEqual(t, resp.Stats, wantStats)
}

// serialPlan routes nets on a fresh single server — the ground truth every
// drill's sharded output must match byte-for-byte.
func serialPlan(t *testing.T, nets []api.NetSpec) ([]string, api.PlanStats) {
	t.Helper()
	svc := server.New(server.Config{Metrics: telemetry.NewMetrics(), MaxWorkers: 4})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	res, stats, err := runStream(t, ts.URL, nets)
	if err != nil {
		t.Fatalf("serial plan: %v", err)
	}
	if stats == nil {
		t.Fatal("serial plan: nil stats")
	}
	return canonResults(t, res), *stats
}

// canonResults renders results in comparison form: sorted by name, with
// per-net wall time (the one legitimately nondeterministic field) zeroed,
// each as its exact JSON wire encoding. Duplicate emissions survive
// sorting and therefore fail the comparison.
func canonResults(t *testing.T, res []api.NetResult) []string {
	t.Helper()
	sorted := append([]api.NetResult(nil), res...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	out := make([]string, len(sorted))
	for i, nr := range sorted {
		nr.ElapsedNS = 0
		b, err := json.Marshal(nr)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

func assertResultsEqual(t *testing.T, got []api.NetResult, want []string) {
	t.Helper()
	g := canonResults(t, got)
	if len(g) != len(want) {
		t.Fatalf("result count %d, want %d", len(g), len(want))
	}
	for i := range g {
		if g[i] != want[i] {
			t.Fatalf("result %d differs:\nsharded: %s\nserial:  %s", i, g[i], want[i])
		}
	}
}

func assertStatsEqual(t *testing.T, got api.PlanStats, want api.PlanStats) {
	t.Helper()
	got.ElapsedNS, want.ElapsedNS = 0, 0
	if got != want {
		t.Fatalf("stats differ (elapsed_ns aside):\nsharded: %+v\nserial:  %+v", got, want)
	}
}

func assertFrontCacheEmpty(t *testing.T, svc *server.Server) {
	t.Helper()
	if n := svc.Cache().Len(); n != 0 {
		t.Fatalf("coordinator front cache holds %d entries; the sharded path must never fill it", n)
	}
}

// TestClusterShardedEqualsSerial is the baseline differential: three
// healthy backends, no faults — results and aggregate stats identical to
// the serial plan in both wire forms, and the front's own cache untouched.
func TestClusterShardedEqualsSerial(t *testing.T) {
	checkGoroutines(t)
	nets := clusterNets(48)
	want, wantStats := serialPlan(t, nets)

	backends := startBackends(t, 3)
	svc, fts, _, m := startFront(t, backendURLs(backends), nil)
	res, stats, err := runStream(t, fts.URL, nets)
	if err != nil {
		t.Fatalf("sharded plan: %v", err)
	}
	assertResultsEqual(t, res, want)
	assertStatsEqual(t, *stats, wantStats)
	assertFrontCacheEmpty(t, svc)
	assertBufferedEqual(t, runBuffered(t, fts.URL, nets), nets, want, wantStats)
	assertFrontCacheEmpty(t, svc)
	if m.CoordFailovers.Value() != 0 || m.CoordDegradedLocal.Value() != 0 {
		t.Fatalf("healthy cluster took failovers=%d degraded=%d",
			m.CoordFailovers.Value(), m.CoordDegradedLocal.Value())
	}
}

// TestClusterBufferedDeadlineIs504 pins what a buffered plan through the
// coordinator answers when every net fails after the plan's deadline: the
// 504 a local plan answers, counted as one request abort, with the front
// cache untouched.
func TestClusterBufferedDeadlineIs504(t *testing.T) {
	checkGoroutines(t)
	backends := startBackends(t, 2)
	svc, fts, _, m := startFront(t, backendURLs(backends), nil)
	// 201x201 at the paper's pitch takes far longer than the 1 ms budget.
	body := `{"grid":{"w":201,"h":201,"pitch_mm":0.125},"timeout_ms":1,"cache":{"mode":"bypass"},"nets":[
	  {"name":"slow","src":{"x":1,"y":1},"dst":{"x":199,"y":199},"src_period_ps":300,"dst_period_ps":300}]}`
	resp, err := http.Post(fts.URL+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if got := m.RequestAborts.Value(); got != 1 {
		t.Fatalf("request_aborts = %d, want 1", got)
	}
	if got := m.Searches.Value(); got != 0 {
		t.Fatalf("front ran %d searches itself; the plan must shard", got)
	}
	assertFrontCacheEmpty(t, svc)
}

// TestClusterPacedStreamCompletes regression-tests the end-of-input
// wakeup. A client that uploads its next net only after the previous
// result arrives leaves every shard worker idling inside an open
// exchange — parked in its claim wait, having last observed the input
// as still live — when the stream's upload ends. Plan must wake those
// workers when the input closes; before the fix the workers slept
// forever, their exchanges never closed their uploads, the backends
// never sent trailers, and the stream hung awaiting its own trailer.
func TestClusterPacedStreamCompletes(t *testing.T) {
	checkGoroutines(t)
	nets := clusterNets(2)
	want, wantStats := serialPlan(t, nets)

	backends := startBackends(t, 2)
	svc, fts, _, _ := startFront(t, backendURLs(backends), nil)

	answered := make(chan struct{}, len(nets))
	source := func(emit func(api.NetSpec) error) error {
		for _, n := range nets {
			if err := emit(n); err != nil {
				return err
			}
			select {
			case <-answered:
			case <-time.After(10 * time.Second):
				return errors.New("paced source: no result within 10s")
			}
			// Give the answering worker time to park back in its claim
			// wait before the next upload (or the end of input) arrives.
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	}

	var res []api.NetResult
	var stats *api.PlanStats
	done := make(chan error, 1)
	go func() {
		c := client.New(fts.URL, client.WithMaxAttempts(1))
		st, err := c.PlanStream(context.Background(), clusterHeader(), source,
			func(nr api.NetResult) error {
				res = append(res, nr)
				answered <- struct{}{}
				return nil
			})
		stats = st
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("paced plan: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("paced stream hung: end of input never woke the shard workers")
	}
	assertResultsEqual(t, res, want)
	assertStatsEqual(t, *stats, wantStats)
	assertFrontCacheEmpty(t, svc)
}

// TestClusterKilledBackendFailsOver kills one backend before the plan: its
// circuit opens on the first refused exchange and every net on its arc
// fails over, with the output still byte-identical in both wire forms and
// /healthz reporting the open circuit.
func TestClusterKilledBackendFailsOver(t *testing.T) {
	checkGoroutines(t)
	nets := clusterNets(36)
	want, wantStats := serialPlan(t, nets)

	backends := startBackends(t, 3)
	backends[0].Close() // partition before any exchange
	svc, fts, _, m := startFront(t, backendURLs(backends), nil)
	res, stats, err := runStream(t, fts.URL, nets)
	if err != nil {
		t.Fatalf("sharded plan: %v", err)
	}
	assertResultsEqual(t, res, want)
	assertStatsEqual(t, *stats, wantStats)
	assertFrontCacheEmpty(t, svc)
	assertBufferedEqual(t, runBuffered(t, fts.URL, nets), nets, want, wantStats)
	assertFrontCacheEmpty(t, svc)
	if m.CoordFailovers.Value() == 0 {
		t.Fatal("killed backend produced no failovers")
	}

	resp, err := http.Get(fts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hb struct {
		Status   string                     `json:"status"`
		Backends []coordinator.BackendState `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	if len(hb.Backends) != 3 {
		t.Fatalf("healthz reports %d backends, want 3", len(hb.Backends))
	}
	if hb.Backends[0].State != coordinator.StateOpen {
		t.Fatalf("killed backend state = %q, want open (states: %+v)", hb.Backends[0].State, hb.Backends)
	}
	for _, b := range hb.Backends[1:] {
		if b.State != coordinator.StateClosed {
			t.Fatalf("healthy backend reported %q: %+v", b.State, hb.Backends)
		}
	}
}

// TestClusterMidStreamFaultReroutes injects a receive fault mid-exchange:
// results already answered by the failed exchange are re-routed along
// with the unanswered ones, deduplicated on emission, and counted in
// exactly one clean trailer — output and stats still byte-identical.
func TestClusterMidStreamFaultReroutes(t *testing.T) {
	checkGoroutines(t)
	nets := clusterNets(36)
	want, wantStats := serialPlan(t, nets)

	if err := faultpoint.Enable("coord.recv.0", "error@3"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()

	backends := startBackends(t, 3)
	svc, fts, _, m := startFront(t, backendURLs(backends), nil)
	res, stats, err := runStream(t, fts.URL, nets)
	if err != nil {
		t.Fatalf("sharded plan: %v", err)
	}
	assertResultsEqual(t, res, want)
	assertStatsEqual(t, *stats, wantStats)
	assertFrontCacheEmpty(t, svc)
	if m.CoordFailovers.Value() == 0 {
		t.Fatal("mid-stream receive fault produced no failovers")
	}
}

// TestClusterSendFaultAndSlowDial combines an upload fault on one backend
// with dial latency on another — the failed upload's nets re-route, the
// slow backend just runs late, and the merge stays exact.
func TestClusterSendFaultAndSlowDial(t *testing.T) {
	checkGoroutines(t)
	nets := clusterNets(30)
	want, wantStats := serialPlan(t, nets)

	if err := faultpoint.Enable("coord.send.1", "error@2"); err != nil {
		t.Fatal(err)
	}
	if err := faultpoint.Enable("coord.dial.2", "delay:5ms"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()

	backends := startBackends(t, 3)
	svc, fts, _, _ := startFront(t, backendURLs(backends), nil)
	res, stats, err := runStream(t, fts.URL, nets)
	if err != nil {
		t.Fatalf("sharded plan: %v", err)
	}
	assertResultsEqual(t, res, want)
	assertStatsEqual(t, *stats, wantStats)
	assertFrontCacheEmpty(t, svc)
}

// TestClusterAllBackendsDownDegradesLocal is the bottom of the ladder:
// with every backend dead, every net routes in-process on the coordinator
// — slower, but byte-identical, and the front cache still untouched.
func TestClusterAllBackendsDownDegradesLocal(t *testing.T) {
	checkGoroutines(t)
	nets := clusterNets(24)
	want, wantStats := serialPlan(t, nets)

	backends := startBackends(t, 3)
	for _, b := range backends {
		b.Close()
	}
	svc, fts, _, m := startFront(t, backendURLs(backends), nil)
	res, stats, err := runStream(t, fts.URL, nets)
	if err != nil {
		t.Fatalf("sharded plan: %v", err)
	}
	assertResultsEqual(t, res, want)
	assertStatsEqual(t, *stats, wantStats)
	assertFrontCacheEmpty(t, svc)
	if got := m.CoordDegradedLocal.Value(); got != int64(len(nets)) {
		t.Fatalf("degraded-local routed %d nets, want all %d", got, len(nets))
	}
}

// TestClusterCircuitRecovers proves the circuit lifecycle end to end: one
// injected dial failure opens the (threshold-1) circuit, the background
// healthz prober closes it after the cooldown, and the next plan shards
// normally with no degraded routing.
func TestClusterCircuitRecovers(t *testing.T) {
	checkGoroutines(t)
	nets := clusterNets(12)
	want, wantStats := serialPlan(t, nets)

	if err := faultpoint.Enable("coord.dial.0", "error@1"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()

	backends := startBackends(t, 1)
	svc, fts, coord, m := startFront(t, backendURLs(backends), func(cfg *coordinator.Config) {
		cfg.Cooldown = 30 * time.Millisecond
		cfg.ProbeInterval = 10 * time.Millisecond
	})

	// Plan 1: the dial fault opens the only circuit; everything degrades
	// to local routing — still exact.
	res, stats, err := runStream(t, fts.URL, nets)
	if err != nil {
		t.Fatalf("plan under fault: %v", err)
	}
	assertResultsEqual(t, res, want)
	assertStatsEqual(t, *stats, wantStats)
	if m.CoordDegradedLocal.Value() == 0 {
		t.Fatal("open circuit did not degrade to local routing")
	}

	// The prober closes the circuit once the cooldown elapses.
	deadline := time.Now().Add(3 * time.Second)
	for coord.States()[0].State != coordinator.StateClosed {
		if time.Now().After(deadline) {
			t.Fatalf("circuit never recovered: %+v", coord.States())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Plan 2: shards to the healed backend; no new degraded routing.
	degradedBefore := m.CoordDegradedLocal.Value()
	res2, stats2, err := runStream(t, fts.URL, nets)
	if err != nil {
		t.Fatalf("plan after recovery: %v", err)
	}
	assertResultsEqual(t, res2, want)
	assertStatsEqual(t, *stats2, wantStats)
	assertFrontCacheEmpty(t, svc)
	if got := m.CoordDegradedLocal.Value(); got != degradedBefore {
		t.Fatalf("healed cluster still degraded %d nets locally", got-degradedBefore)
	}
}

// TestClusterDrainMidStream is the shutdown drill: a drain forced in the
// middle of a 1000-net sharded stream must either finish the plan or
// cleanly abort it — one result line per net, no duplicates, no stuck
// exchange, no leaked goroutine.
func TestClusterDrainMidStream(t *testing.T) {
	checkGoroutines(t)
	nets := clusterNets(1000)
	valid := make(map[string]bool, len(nets))
	for _, n := range nets {
		valid[n.Name] = true
	}

	backends := startBackends(t, 3)
	svc, fts, _, _ := startFront(t, backendURLs(backends), nil)

	var (
		mu    sync.Mutex
		names = make(map[string]int)
		count int
	)
	var once sync.Once
	drained := make(chan error, 1)
	c := client.New(fts.URL, client.WithMaxAttempts(2), client.WithBackoff(time.Millisecond))
	stats, err := c.PlanStream(context.Background(), clusterHeader(), client.NetsFromSlice(nets),
		func(nr api.NetResult) error {
			mu.Lock()
			names[nr.Name]++
			count++
			n := count
			mu.Unlock()
			if n == 50 {
				// SIGTERM mid-stream: routed's signal path calls exactly this,
				// with an already-expired drain budget so in-flight work is
				// aborted rather than awaited. Async — the stream must keep
				// draining or the trailer write could deadlock against us.
				once.Do(func() {
					go func() {
						ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
						defer cancel()
						drained <- svc.Shutdown(ctx)
					}()
				})
			}
			return nil
		})
	<-drained

	mu.Lock()
	defer mu.Unlock()
	for name, c := range names {
		if !valid[name] {
			t.Fatalf("received unknown net %q", name)
		}
		if c != 1 {
			t.Fatalf("net %q emitted %d times", name, c)
		}
	}
	if err == nil {
		// The stream outran the drain: every net must have answered.
		if len(names) != len(nets) || stats == nil {
			t.Fatalf("clean finish with %d/%d results (stats %v)", len(names), len(nets), stats)
		}
	} else {
		var se *client.StreamError
		if !errors.As(err, &se) {
			t.Fatalf("aborted stream returned %T %v, want *client.StreamError", err, err)
		}
	}
	assertFrontCacheEmpty(t, svc)
}

// TestClusterEnvPartitionSmoke is the environment-armed drill behind
// `make cluster-drill`: with FAULTPOINTS naming a coord.* site (e.g.
// coord.dial.0=error, a hard partition of backend 0), the sharded plan
// must still match the serial one exactly. Skipped when the environment
// does not arm a coordinator site.
func TestClusterEnvPartitionSmoke(t *testing.T) {
	if !strings.Contains(os.Getenv("FAULTPOINTS"), "coord.") {
		t.Skip("set FAULTPOINTS=coord.dial.0=error (see make cluster-drill) to run")
	}
	checkGoroutines(t)
	nets := clusterNets(24)
	want, wantStats := serialPlan(t, nets)

	backends := startBackends(t, 3)
	svc, fts, _, _ := startFront(t, backendURLs(backends), nil)
	res, stats, err := runStream(t, fts.URL, nets)
	if err != nil {
		t.Fatalf("sharded plan under %q: %v", os.Getenv("FAULTPOINTS"), err)
	}
	assertResultsEqual(t, res, want)
	assertStatsEqual(t, *stats, wantStats)
	assertFrontCacheEmpty(t, svc)
}
