// Package chaos is the fault-injection battery: it arms faultpoint modes
// against live searches, batches, and the HTTP service under -race and
// asserts the robustness contract end to end — panics are contained at
// every concurrency boundary, quarantined scratches never re-enter the
// pool, the planner's retry-once policy heals injured nets, the service
// answers 500 and stays up, and results produced after a fault are
// exactly the results produced without one.
package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"net/http/httptest"

	"clockroute/internal/core"
	"clockroute/internal/elmore"
	"clockroute/internal/faultpoint"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/oracle"
	"clockroute/internal/planner"
	"clockroute/internal/server"
	"clockroute/internal/tech"
	"clockroute/internal/telemetry"
)

// checkGoroutines registers a cleanup asserting the test leaked no
// goroutines: the count must return to its starting level (with a grace
// window for httptest teardown and timer goroutines to unwind). Register
// it FIRST so it runs LAST, after the test's own cleanups close servers.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
	})
}

// lineProblem builds a W×1 problem mirroring an all-clear oracle line.
func lineProblem(t *testing.T, tc *tech.Tech, edges int, pitch float64) (*core.Problem, oracle.Line) {
	t.Helper()
	g := grid.MustNew(edges+1, 1, pitch)
	m, err := elmore.NewModel(tc, pitch)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(g, m, g.ID(geom.Pt(0, 0)), g.ID(geom.Pt(edges, 0)))
	if err != nil {
		t.Fatal(err)
	}
	masks := make([]bool, edges+1)
	for i := range masks {
		masks[i] = true
	}
	return p, oracle.Line{Edges: edges, PitchMM: pitch, BufOK: masks, RegOK: masks}
}

// TestWavePushPanicContainedThenOracleExact is the scratch-quarantine
// proof: a panic injected mid-wave must surface as core.ErrInternal with
// the scratch quarantined (never released), and every subsequent pooled
// search must still match the oracle exactly — a corrupt scratch leaking
// back into the pool would poison the epoch stamps and break agreement.
func TestWavePushPanicContainedThenOracleExact(t *testing.T) {
	checkGoroutines(t)
	tc := tech.CongPan70nm()
	p, _ := lineProblem(t, tc, 40, 0.25)

	if err := faultpoint.Enable("core.wave_push", "panic@5"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()

	qBefore := core.ScratchQuarantines()
	res, err := core.RBP(p, 200, core.Options{})
	if res != nil || !errors.Is(err, core.ErrInternal) {
		t.Fatalf("injected panic: res=%v err=%v, want nil result wrapping core.ErrInternal", res, err)
	}
	if !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("contained error %v does not carry faultpoint.ErrInjected", err)
	}
	var ie *core.InternalError
	if !errors.As(err, &ie) || len(ie.Stack) == 0 {
		t.Fatalf("contained error %v carries no stack", err)
	}
	if got := core.ScratchQuarantines(); got != qBefore+1 {
		t.Fatalf("scratch quarantines %d, want %d", got, qBefore+1)
	}
	faultpoint.Reset()

	// Post-fault sweep on pooled scratches: exact oracle agreement.
	for i, edges := range []int{8, 16, 24, 40, 47} {
		p, line := lineProblem(t, tc, edges, 0.25)
		for _, T := range []float64{120, 300, 900} {
			want, oerr := oracle.MinRegisters(line, tc, T)
			got, rerr := core.RBP(p, T, core.Options{})
			switch {
			case oerr == nil && rerr == nil:
				if got.Registers != want.Registers {
					t.Fatalf("case %d T=%g: post-fault RBP registers %d != oracle %d", i, T, got.Registers, want.Registers)
				}
			case oerr != nil && rerr != nil:
				// both infeasible: agree
			default:
				t.Fatalf("case %d T=%g: post-fault feasibility disagrees: oracle %v, RBP %v", i, T, oerr, rerr)
			}
			md, oerr := oracle.MinDelay(line, tc)
			if oerr != nil {
				t.Fatal(oerr)
			}
			fp, ferr := core.FastPath(p, core.Options{})
			if ferr != nil {
				t.Fatal(ferr)
			}
			if diff := fp.Latency - md; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("case %d: post-fault FastPath %g != oracle MinDelay %g", i, fp.Latency, md)
			}
		}
	}
}

// batchPlanner builds a 16×16-grid planner and 32 RBP net specs spread
// across the die.
func batchPlanner(t *testing.T) (*planner.Planner, []planner.NetSpec) {
	t.Helper()
	g := grid.MustNew(16, 16, 0.25)
	pl, err := planner.NewFromGrid(g, tech.CongPan70nm(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]planner.NetSpec, 32)
	for i := range specs {
		specs[i] = planner.NetSpec{
			Name:        fmt.Sprintf("net%02d", i),
			Src:         geom.Pt(1+i%4, 1+i%8),
			Dst:         geom.Pt(14-i%3, 14-i%5),
			SrcPeriodPS: 400,
			DstPeriodPS: 400,
		}
	}
	return pl, specs
}

// sameRouting reports whether two net results agree on everything the
// search determines (path, elements, latency) — the "byte-identical
// routing" criterion, ignoring wall-time fields.
func sameRouting(a, b planner.NetResult) bool {
	if a.LatencyPS != b.LatencyPS || a.Registers != b.Registers ||
		a.Buffers != b.Buffers || a.SrcCycles != b.SrcCycles ||
		a.WireMM != b.WireMM || (a.Path == nil) != (b.Path == nil) {
		return false
	}
	if a.Path == nil {
		return true
	}
	if len(a.Path.Nodes) != len(b.Path.Nodes) {
		return false
	}
	for i := range a.Path.Nodes {
		if a.Path.Nodes[i] != b.Path.Nodes[i] || a.Path.Gates[i] != b.Path.Gates[i] {
			return false
		}
	}
	return true
}

// TestBatchSurvivesWavePushPanic is the acceptance chaos proof: with
// core.wave_push armed to panic once mid-batch, a 32-net RunParallel
// completes with the injured net healed by the retry-once policy, every
// result identical to the fault-free baseline, and the panic visible only
// in the plan's counters.
func TestBatchSurvivesWavePushPanic(t *testing.T) {
	checkGoroutines(t)
	pl, specs := batchPlanner(t)

	baseline, err := pl.RunParallel(context.Background(), 4, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range baseline.Nets {
		if n.Err != nil {
			t.Fatalf("baseline net %s failed: %v", n.Spec.Name, n.Err)
		}
	}

	// Single-shot: the 200th wave push across the whole batch panics; the
	// atomic hit counter makes which net it injures scheduling-dependent,
	// which is the point — any net must heal.
	if err := faultpoint.Enable("core.wave_push", "panic@200"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()
	qBefore := core.ScratchQuarantines()

	injured, err := pl.RunParallel(context.Background(), 4, specs)
	if err != nil {
		t.Fatal(err)
	}
	if faultpoint.Hits("core.wave_push") < 200 {
		t.Fatalf("failpoint hit only %d times; batch too small to reach the trigger", faultpoint.Hits("core.wave_push"))
	}
	if injured.Stats.NetsFailed != 0 || injured.Stats.NetsRouted != len(specs) {
		t.Fatalf("injured batch: %d routed, %d failed; retry-once should heal the one injured net",
			injured.Stats.NetsRouted, injured.Stats.NetsFailed)
	}
	if injured.Stats.NetsPanicked != 1 || injured.Stats.NetsRetried != 1 {
		t.Fatalf("stats: NetsPanicked=%d NetsRetried=%d, want exactly 1 and 1",
			injured.Stats.NetsPanicked, injured.Stats.NetsRetried)
	}
	if got := core.ScratchQuarantines(); got != qBefore+1 {
		t.Fatalf("scratch quarantines %d, want %d (exactly the injured attempt)", got, qBefore+1)
	}
	for i := range specs {
		if !sameRouting(baseline.Nets[i], injured.Nets[i]) {
			t.Fatalf("net %s: routing diverged after fault injection\nbaseline: lat=%g regs=%d\ninjected: lat=%g regs=%d",
				specs[i].Name, baseline.Nets[i].LatencyPS, baseline.Nets[i].Registers,
				injured.Nets[i].LatencyPS, injured.Nets[i].Registers)
		}
	}
}

// TestBatchErrorInjectionEveryNet: with core.search failing every hit,
// every net fails cleanly (batch still completes), every net is retried
// exactly once, and every error is classified as injected.
func TestBatchErrorInjectionEveryNet(t *testing.T) {
	checkGoroutines(t)
	pl, specs := batchPlanner(t)
	if err := faultpoint.Enable("core.search", "error"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()

	plan, err := pl.RunParallel(context.Background(), 4, specs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.NetsFailed != len(specs) || plan.Stats.NetsRouted != 0 {
		t.Fatalf("%d failed, %d routed; want all %d failed", plan.Stats.NetsFailed, plan.Stats.NetsRouted, len(specs))
	}
	if plan.Stats.NetsRetried != len(specs) {
		t.Fatalf("NetsRetried=%d, want %d (retry-once per injected net)", plan.Stats.NetsRetried, len(specs))
	}
	for _, n := range plan.Nets {
		if !errors.Is(n.Err, faultpoint.ErrInjected) {
			t.Fatalf("net %s error %v not classified as injected", n.Spec.Name, n.Err)
		}
		if n.Panicked {
			t.Fatalf("net %s marked Panicked for a plain injected error", n.Spec.Name)
		}
	}
}

// TestEngineTaskPanicContained drives the engine's own recovery boundary:
// a panic before the task body (where the search wrappers can't see it)
// must fail exactly one net and leave the rest routed.
func TestEngineTaskPanicContained(t *testing.T) {
	checkGoroutines(t)
	pl, specs := batchPlanner(t)
	if err := faultpoint.Enable("engine.task", "panic@1"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()

	plan, err := pl.RunParallel(context.Background(), 4, specs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.NetsFailed != 1 || plan.Stats.NetsPanicked != 1 {
		t.Fatalf("NetsFailed=%d NetsPanicked=%d, want 1 and 1", plan.Stats.NetsFailed, plan.Stats.NetsPanicked)
	}
	for _, n := range plan.Nets {
		if n.Err != nil && !errors.Is(n.Err, core.ErrInternal) {
			t.Fatalf("failed net %s error %v does not wrap core.ErrInternal", n.Spec.Name, n.Err)
		}
	}
}

// TestArenaGrowPanicContained injures the rare slab-growth path: the
// search dies contained, and after disarming, the identical search (on a
// fresh pooled scratch) succeeds.
func TestArenaGrowPanicContained(t *testing.T) {
	checkGoroutines(t)
	tc := tech.CongPan70nm()
	// Big enough that the search must allocate beyond any scratch already
	// in this test binary's pool, forcing at least one slab growth.
	g := grid.MustNew(64, 64, 0.25)
	m, err := elmore.NewModel(tc, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(g, m, g.ID(geom.Pt(1, 1)), g.ID(geom.Pt(62, 62)))
	if err != nil {
		t.Fatal(err)
	}

	if err := faultpoint.Enable("arena.grow", "panic"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()
	if _, err := core.RBP(p, 300, core.Options{}); !errors.Is(err, core.ErrInternal) {
		t.Fatalf("arena.grow panic surfaced as %v, want core.ErrInternal", err)
	}
	faultpoint.Reset()
	res, err := core.RBP(p, 300, core.Options{})
	if err != nil {
		t.Fatalf("post-fault search failed: %v", err)
	}
	if res.Path == nil || res.Path.Len() == 0 {
		t.Fatal("post-fault search returned an empty path")
	}
}

// TestSinkFaultsNeverStallSearch holds the Sink failure contract: with
// the telemetry writer failing or slow, searches still return their exact
// fault-free results, and the failure is visible only via JSONL.Err.
func TestSinkFaultsNeverStallSearch(t *testing.T) {
	checkGoroutines(t)
	tc := tech.CongPan70nm()
	p, _ := lineProblem(t, tc, 30, 0.25)
	want, err := core.RBP(p, 250, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, spec := range []string{"error", "delay:100us"} {
		if err := faultpoint.Enable("sink.write", spec); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sink := telemetry.NewJSONL(&buf)
		got, err := core.Route(context.Background(), p, core.Request{
			Kind: core.KindRBP, PeriodPS: 250,
			Options: core.Options{Telemetry: sink},
		})
		if err != nil {
			t.Fatalf("sink.write=%s: search failed: %v", spec, err)
		}
		if got.Registers != want.Registers || got.Latency != want.Latency {
			t.Fatalf("sink.write=%s: result diverged (regs %d vs %d, latency %g vs %g)",
				spec, got.Registers, want.Registers, got.Latency, want.Latency)
		}
		if spec == "error" && sink.Err() == nil {
			t.Fatal("failing sink reported no error out-of-band")
		}
		faultpoint.Reset()
	}
}

// chaosServer builds an isolated service instance for injection tests.
func chaosServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *telemetry.Metrics) {
	t.Helper()
	m := telemetry.NewMetrics()
	cfg.Metrics = m
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, m
}

const routeBody = `{"grid":{"w":24,"h":24,"pitch_mm":0.25},"kind":"rbp","period_ps":500,
  "src":{"x":1,"y":1},"dst":{"x":22,"y":22}}`

func post(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(routeBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.String()
}

// TestServerSurvivesHandlerPanic: a single injected decoder panic answers
// 500 with the panic counted, and the very next request succeeds — the
// process-stays-up contract.
func TestServerSurvivesHandlerPanic(t *testing.T) {
	checkGoroutines(t)
	s, ts, m := chaosServer(t, server.Config{})
	if err := faultpoint.Enable("server.decode", "panic@1"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()

	resp, body := post(t, ts.URL+"/v1/route")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d body %s, want 500", resp.StatusCode, body)
	}
	if s.Panics() != 1 {
		t.Fatalf("server panic count %d, want 1", s.Panics())
	}
	if got := m.RequestPanics.Value(); got != 1 {
		t.Fatalf("request_panics metric = %d, want 1", got)
	}
	if s.Degraded() {
		t.Fatal("one panic must not degrade health (threshold 3)")
	}

	resp, body = post(t, ts.URL+"/v1/route")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after contained panic: status %d body %s, want 200", resp.StatusCode, body)
	}
}

// TestServerDegradedHealthAfterPanics: healthz flips to "degraded" (still
// HTTP 200 — the process serves) once panics cross the threshold.
func TestServerDegradedHealthAfterPanics(t *testing.T) {
	checkGoroutines(t)
	s, ts, _ := chaosServer(t, server.Config{})
	if err := faultpoint.Enable("server.decode", "panic"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()

	health := func() string {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d, want 200 even when degraded", resp.StatusCode)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.String()
	}

	if got := health(); !strings.Contains(got, `"ok"`) {
		t.Fatalf("pristine healthz = %s", got)
	}
	for range 3 {
		post(t, ts.URL+"/v1/route")
	}
	if !s.Degraded() {
		t.Fatalf("server not degraded after %d panics (threshold 3)", s.Panics())
	}
	if got := health(); !strings.Contains(got, `"degraded"`) {
		t.Fatalf("degraded healthz = %s", got)
	}
}

// TestDrainCompletesAfterPanics: injected handler panics must not wedge
// the admission counters — a graceful drain still completes and refuses
// late requests with 503.
func TestDrainCompletesAfterPanics(t *testing.T) {
	checkGoroutines(t)
	s, ts, _ := chaosServer(t, server.Config{})
	if err := faultpoint.Enable("server.decode", "panic"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		post(t, ts.URL+"/v1/route")
	}
	faultpoint.Reset()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain after panics: %v", err)
	}
	resp, _ := post(t, ts.URL+"/v1/route")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", resp.StatusCode)
	}
}

// TestChaosEnvSmoke only runs when the caller armed faultpoints via the
// environment (e.g. `FAULTPOINTS=core.wave_push=panic@100 go test ...`):
// it routes a batch and asserts the batch completes whatever was armed —
// the hook `make chaos` uses to exercise the env-var activation path.
func TestChaosEnvSmoke(t *testing.T) {
	if os.Getenv("FAULTPOINTS") == "" {
		t.Skip("set FAULTPOINTS to run the env-armed smoke test")
	}
	if !faultpoint.Active() {
		t.Fatal("FAULTPOINTS set but registry not armed — init() wiring broken")
	}
	pl, specs := batchPlanner(t)
	plan, err := pl.RunParallel(context.Background(), 4, specs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("env-armed batch: %d routed, %d failed, %d panicked, %d retried",
		plan.Stats.NetsRouted, plan.Stats.NetsFailed, plan.Stats.NetsPanicked, plan.Stats.NetsRetried)
}
