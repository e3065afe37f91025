package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clockroute/api"
	"clockroute/internal/candidate"
	"clockroute/internal/elmore"
	"clockroute/internal/planwire"
	"clockroute/internal/route"
	"clockroute/internal/tech"
	"clockroute/internal/telemetry"
)

// newTestServer builds a server with an isolated metrics registry so
// counter assertions don't race other tests or the process default.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *telemetry.Metrics) {
	t.Helper()
	m := telemetry.NewMetrics()
	cfg.Metrics = m
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, m
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func routeBody(w, h int, pitch, period float64, sx, sy, dx, dy, timeoutMS int) string {
	body := fmt.Sprintf(`{"grid":{"w":%d,"h":%d,"pitch_mm":%g},"kind":"rbp","period_ps":%g,
	  "src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d}`, w, h, pitch, period, sx, sy, dx, dy)
	if timeoutMS > 0 {
		body += fmt.Sprintf(`,"timeout_ms":%d`, timeoutMS)
	}
	return body + "}"
}

// TestRouteRoundTrip posts a single-clock route and independently
// re-verifies the returned path with the closed-form checker.
func TestRouteRoundTrip(t *testing.T) {
	_, ts, m := newTestServer(t, Config{})
	const (
		W, H     = 32, 32
		pitch, T = 0.25, 500.0
		sx, sy   = 1, 1
		dx, dy   = 30, 30
	)
	resp, body := postJSON(t, ts.URL+"/v1/route", routeBody(W, H, pitch, T, sx, sy, dx, dy, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr api.RouteResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Path) == 0 || len(rr.Path) != len(rr.Gates) {
		t.Fatalf("path/gates mismatch: %d vs %d", len(rr.Path), len(rr.Gates))
	}
	if rr.Path[0] != (api.Point{X: sx, Y: sy}) || rr.Path[len(rr.Path)-1] != (api.Point{X: dx, Y: dy}) {
		t.Fatalf("path endpoints %v .. %v", rr.Path[0], rr.Path[len(rr.Path)-1])
	}

	// Rebuild the path from the wire form and re-check it against the
	// grid and period with the independent verifier.
	spec := api.GridSpec{W: W, H: H, PitchMM: pitch}
	g, err := planwire.BuildGrid(&spec)
	if err != nil {
		t.Fatal(err)
	}
	p := &route.Path{
		Nodes: make([]int, len(rr.Path)),
		Gates: make([]candidate.Gate, len(rr.Gates)),
	}
	for i, pt := range rr.Path {
		p.Nodes[i] = pt.X + pt.Y*W
	}
	for i, s := range rr.Gates {
		gt, err := planwire.ParseGate(s)
		if err != nil {
			t.Fatal(err)
		}
		p.Gates[i] = gt
	}
	mdl, err := elmore.NewModel(tech.CongPan70nm(), pitch)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := route.VerifySingleClock(p, g, mdl, T)
	if err != nil {
		t.Fatalf("returned path fails independent verification: %v", err)
	}
	if lat != rr.LatencyPS {
		t.Errorf("verified latency %g != reported %g", lat, rr.LatencyPS)
	}
	if got := m.Requests.Value(); got != 1 {
		t.Errorf("requests counter = %d", got)
	}
	if got := m.Searches.Value(); got < 1 {
		t.Errorf("search span did not reach the registry (searches = %d)", got)
	}
	if m.RequestLatencyMS.Count() != 1 {
		t.Errorf("latency histogram count = %d", m.RequestLatencyMS.Count())
	}
}

// TestPlanRoundTrip routes a small batch and checks order, stats, and the
// net spans on the shared registry.
func TestPlanRoundTrip(t *testing.T) {
	_, ts, m := newTestServer(t, Config{})
	body := `{"grid":{"w":24,"h":24,"pitch_mm":0.25},"workers":2,"nets":[
	  {"name":"n0","src":{"x":1,"y":1},"dst":{"x":22,"y":22},"src_period_ps":500,"dst_period_ps":500},
	  {"name":"n1","src":{"x":1,"y":22},"dst":{"x":22,"y":1},"src_period_ps":500,"dst_period_ps":500},
	  {"name":"n2","src":{"x":1,"y":12},"dst":{"x":22,"y":12},"src_period_ps":400,"dst_period_ps":650}]}`
	resp, raw := postJSON(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var pr api.PlanResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Nets) != 3 {
		t.Fatalf("%d nets", len(pr.Nets))
	}
	for i, want := range []string{"n0", "n1", "n2"} {
		if pr.Nets[i].Name != want {
			t.Errorf("net %d = %q, want %q (order must match the request)", i, pr.Nets[i].Name, want)
		}
		if pr.Nets[i].Error != "" {
			t.Errorf("net %q failed: %s", pr.Nets[i].Name, pr.Nets[i].Error)
		}
	}
	if pr.Nets[2].Mode != "gals" {
		t.Errorf("cross-domain net routed with %q", pr.Nets[2].Mode)
	}
	if pr.Stats.NetsRouted != 3 || pr.Stats.NetsFailed != 0 {
		t.Errorf("stats %+v", pr.Stats)
	}
	if m.NetsDone.Value() != 3 {
		t.Errorf("net spans missing from registry: nets_done = %d", m.NetsDone.Value())
	}
	if q, ended := m.NetsQueued.Value(), m.NetsDone.Value()+m.NetsFailed.Value(); q != ended {
		t.Errorf("nets_queued = %d, want nets_done + nets_failed = %d", q, ended)
	}
}

// TestRouteInfeasible: a period far below what the pitch allows has no
// solution — 422, not 500 and not a timeout.
func TestRouteInfeasible(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/route", routeBody(10, 1, 2.0, 30, 0, 0, 9, 0, 0))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("error body %q", body)
	}
}

// TestRouteBadRequests: malformed and semantically invalid bodies are 400.
func TestRouteBadRequests(t *testing.T) {
	_, ts, m := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"garbage":    "ceci n'est pas du json",
		"unknown":    `{"grid":{"w":4,"h":4,"pitch_mm":1},"kind":"rbp","period_ps":500,"src":{"x":0,"y":0},"dst":{"x":3,"y":3},"x":1}`,
		"no period":  `{"grid":{"w":4,"h":4,"pitch_mm":1},"kind":"rbp","src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`,
		"same endpt": `{"grid":{"w":4,"h":4,"pitch_mm":1},"kind":"fastpath","src":{"x":1,"y":1},"dst":{"x":1,"y":1}}`,
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/route", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, raw)
		}
	}
	if m.RequestErrors.Value() != 4 {
		t.Errorf("request_errors = %d, want 4", m.RequestErrors.Value())
	}
}

// TestRouteDeadline: a deadline far below the search cost returns 504 and
// the search is genuinely aborted (visible on the abort and search-error
// counters, not just the status line). A buffered plan whose every net
// aborts, with none cached, is the same deadline failure; its deadline
// also covers building the planner, so the abort may land before any
// search span opens.
func TestRouteDeadline(t *testing.T) {
	// 201x201 at the paper's pitch with a tightish period takes far longer
	// than 1 ms.
	for _, tc := range []struct {
		name, body string
		searched   bool // the aborted search must show on search_errors
	}{
		{"route", routeBody(201, 201, 0.125, 300, 1, 1, 199, 199, 1), true},
		{"plan", `{"grid":{"w":201,"h":201,"pitch_mm":0.125},"timeout_ms":1,"nets":[` +
			netJSON("slow", 1, 1, 199, 199, 300) + `]}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts, m := newTestServer(t, Config{})
			resp, body := postJSON(t, ts.URL+"/v1/"+tc.name, tc.body)
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), "abort") {
				t.Errorf("error body should carry the abort cause: %s", body)
			}
			if m.RequestAborts.Value() != 1 {
				t.Errorf("request_aborts = %d, want 1", m.RequestAborts.Value())
			}
			if tc.searched && m.SearchErrors.Value() < 1 {
				t.Errorf("search span shows no abort (search_errors = %d)", m.SearchErrors.Value())
			}
		})
	}
}

// quickBody is a fast, feasible route used by the admission tests.
func quickBody() string { return routeBody(8, 8, 0.25, 500, 1, 1, 6, 6, 0) }

// TestAdmissionShedsWith429: with one in-flight slot and no queue, a
// second concurrent request is shed with 429 + Retry-After while the
// first still holds the slot.
func TestAdmissionShedsWith429(t *testing.T) {
	s, ts, m := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	// MaxQueue 1: the spare slot lets us distinguish "queued" from
	// "shed" — the third request must shed.
	hold := make(chan struct{})
	var once sync.Once
	s.testHookAdmitted = func() {
		once.Do(func() { <-hold }) // only the first admitted request blocks
	}

	first := make(chan int, 1)
	go func() {
		resp, _ := http.Post(ts.URL+"/v1/route", "application/json", strings.NewReader(quickBody()))
		if resp != nil {
			resp.Body.Close()
			first <- resp.StatusCode
		} else {
			first <- 0
		}
	}()
	waitFor(t, func() bool { return s.InFlight() == 1 })

	// Second request: queues (slot taken, queue has room) — run it in the
	// background so it occupies the queue slot.
	second := make(chan int, 1)
	go func() {
		resp, _ := http.Post(ts.URL+"/v1/route", "application/json", strings.NewReader(quickBody()))
		if resp != nil {
			resp.Body.Close()
			second <- resp.StatusCode
		} else {
			second <- 0
		}
	}()
	waitFor(t, func() bool { return s.Queued() == 1 })

	// Third request: both the slot and the queue are full — shed.
	resp, body := postJSON(t, ts.URL+"/v1/route", quickBody())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if m.Shed.Value() != 1 {
		t.Errorf("shed counter = %d, want 1", m.Shed.Value())
	}

	close(hold)
	if code := <-first; code != http.StatusOK {
		t.Errorf("held request finished %d, want 200", code)
	}
	if code := <-second; code != http.StatusOK {
		t.Errorf("queued request finished %d, want 200", code)
	}
}

// TestAdmissionSkippedForCachedPlan: a buffered plan whose every net is
// cached is answered from memory while the in-flight slot and the queue
// are both full — warm hits skip admission control entirely — and a plan
// with a net left to route is still shed.
func TestAdmissionSkippedForCachedPlan(t *testing.T) {
	cfg := cacheTestConfig()
	cfg.MaxInFlight, cfg.MaxQueue = 1, 1
	s, ts, m := newTestServer(t, cfg)
	warm := planBody([]string{netJSON("a", 1, 1, 20, 20, 500), netJSON("b", 2, 2, 18, 3, 500)}, "")
	if resp, body := postJSON(t, ts.URL+"/v1/plan", warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d: %s", resp.StatusCode, body)
	}

	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	defer release() // a failed check must not strand the held route
	var once sync.Once
	s.testHookAdmitted = func() { once.Do(func() { <-hold }) }
	codes := make(chan int, 2)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/route", "application/json", strings.NewReader(quickBody()))
		if err != nil {
			codes <- 0
			return
		}
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	go post()
	waitFor(t, func() bool { return s.InFlight() == 1 })
	go post()
	waitFor(t, func() bool { return s.Queued() == 1 })

	resp, body := postJSON(t, ts.URL+"/v1/plan", warm)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("cached plan under saturation: status %d X-Cache=%q: %s",
			resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	cold := planBody([]string{netJSON("a", 1, 1, 20, 20, 500), netJSON("c", 0, 5, 21, 7, 500)}, "")
	if resp, body := postJSON(t, ts.URL+"/v1/plan", cold); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("plan with a miss under saturation: status %d, want 429: %s", resp.StatusCode, body)
	}
	if m.Shed.Value() != 1 {
		t.Errorf("shed counter = %d, want 1", m.Shed.Value())
	}

	release()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("held route finished %d, want 200", code)
		}
	}
}

// TestGracefulDrain: Shutdown refuses new work with 503 but lets every
// admitted request finish with 200.
func TestGracefulDrain(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 1})
	hold := make(chan struct{})
	var held sync.WaitGroup
	held.Add(2)
	var admitted atomic.Int32
	s.testHookAdmitted = func() {
		if admitted.Add(1) <= 2 {
			held.Done()
			<-hold
		}
	}

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, _ := http.Post(ts.URL+"/v1/route", "application/json", strings.NewReader(quickBody()))
			if resp != nil {
				resp.Body.Close()
				results <- resp.StatusCode
			} else {
				results <- 0
			}
		}()
	}
	held.Wait() // both requests are in-flight and blocked

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return s.Draining() })

	// New work is refused immediately while the drain runs.
	resp, body := postJSON(t, ts.URL+"/v1/route", quickBody())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d during drain, want 503: %s", resp.StatusCode, body)
	}

	// Release the held requests: both must complete normally.
	close(hold)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("in-flight request finished %d during drain, want 200", code)
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("drain reported %v, want clean nil", err)
	}
}

// TestDrainDeadlineAbortsSearches: when the drain budget expires, held
// searches are aborted through the cooperative hook and Shutdown returns
// the context error instead of hanging.
func TestDrainDeadlineAbortsSearches(t *testing.T) {
	s, ts, m := newTestServer(t, Config{MaxInFlight: 1})
	result := make(chan int, 1)
	go func() {
		// A genuinely long search (no test hook: the abort must travel
		// through the search layer, not around it).
		resp, _ := http.Post(ts.URL+"/v1/route", "application/json",
			strings.NewReader(routeBody(201, 201, 0.125, 300, 1, 1, 199, 199, 60_000)))
		if resp != nil {
			resp.Body.Close()
			result <- resp.StatusCode
		} else {
			result <- 0
		}
	}()
	waitFor(t, func() bool { return s.InFlight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	if code := <-result; code != http.StatusServiceUnavailable {
		t.Errorf("aborted request finished %d, want 503", code)
	}
	if m.RequestAborts.Value() != 1 {
		t.Errorf("request_aborts = %d, want 1", m.RequestAborts.Value())
	}
}

// TestHealthz reports admission state.
func TestHealthz(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, body := getURL(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Errorf("health %v", h)
	}
}

// TestMethodNotAllowed: the v1 endpoints are POST-only.
func TestMethodNotAllowed(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, _ := getURL(t, ts.URL+"/v1/route")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/route = %d, want 405", resp.StatusCode)
	}
}

func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
