package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"clockroute/api"
	rclient "clockroute/client"
	"clockroute/internal/telemetry"
)

// TestTracePropagationE2E drives the real client against the real handler
// and asserts the one property the whole pipeline exists for: every span
// the request produces — server request, engine net workers, core search
// waves — carries the trace id the caller minted.
func TestTracePropagationE2E(t *testing.T) {
	ring := telemetry.NewRing(256)
	_, ts, _ := newTestServer(t, Config{Sink: ring})

	parent := telemetry.NewTraceContext()
	ctx := rclient.WithTraceContext(context.Background(), parent.TraceParent())
	ctx = rclient.WithRequestID(ctx, "req-e2e")

	c := rclient.New(ts.URL)
	pr, err := c.Plan(ctx, &api.PlanRequest{
		Grid:    api.GridSpec{W: 24, H: 24, PitchMM: 0.25},
		Workers: 2,
		Nets: []api.NetSpec{
			{Name: "n0", Src: api.Point{X: 1, Y: 1}, Dst: api.Point{X: 22, Y: 22}, SrcPeriodPS: 500, DstPeriodPS: 500},
			{Name: "n1", Src: api.Point{X: 1, Y: 22}, Dst: api.Point{X: 22, Y: 1}, SrcPeriodPS: 500, DstPeriodPS: 500},
			{Name: "n2", Src: api.Point{X: 1, Y: 12}, Dst: api.Point{X: 22, Y: 12}, SrcPeriodPS: 400, DstPeriodPS: 650},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Nets) != 3 {
		t.Fatalf("%d nets", len(pr.Nets))
	}

	events := ring.Events()
	if len(events) == 0 {
		t.Fatal("no telemetry events captured")
	}
	kinds := map[string]int{}
	for _, e := range events {
		if e.Trace != parent.TraceHex() {
			t.Fatalf("event %s net=%q trace = %q, want the caller's %q",
				e.Kind, e.Net, e.Trace, parent.TraceHex())
		}
		if e.Request != "req-e2e" {
			t.Fatalf("event %s request id = %q", e.Kind, e.Request)
		}
		kinds[e.Kind.String()]++
	}
	// The stream must cover every layer: engine net spans and core search
	// spans, not just the server's own bookkeeping.
	for _, want := range []string{"net_start", "net_end", "search_start", "search_end", "wave_start"} {
		if kinds[want] == 0 {
			t.Errorf("no %s events reached the sink (kinds: %v)", want, kinds)
		}
	}
}

// TestTraceResponseHeaders pins the wire contract of the middleware: the
// response always carries X-Request-Id and a traceparent that stays in
// the caller's trace but names the server's own span.
func TestTraceResponseHeaders(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	parent := telemetry.NewTraceContext()

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/route", strings.NewReader(quickBody()))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", parent.TraceParent())
	req.Header.Set("X-Request-Id", "rid-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "rid-42" {
		t.Errorf("X-Request-Id = %q, want the caller's rid-42", got)
	}
	echoed, err := telemetry.ParseTraceParent(resp.Header.Get("traceparent"))
	if err != nil {
		t.Fatalf("response traceparent %q: %v", resp.Header.Get("traceparent"), err)
	}
	if echoed.TraceID != parent.TraceID {
		t.Error("server left the caller's trace")
	}
	if echoed.SpanID == parent.SpanID {
		t.Error("server reused the caller's span id instead of minting a child")
	}

	// Without inbound headers the server mints both: still present, and the
	// request id defaults to the minted trace id.
	resp2, body := postJSON(t, ts.URL+"/v1/route", quickBody())
	minted, err := telemetry.ParseTraceParent(resp2.Header.Get("traceparent"))
	if err != nil {
		t.Fatalf("minted traceparent invalid: %v (%s)", err, body)
	}
	if rid := resp2.Header.Get("X-Request-Id"); rid != minted.TraceHex() {
		t.Errorf("minted X-Request-Id = %q, want trace id %q", rid, minted.TraceHex())
	}
}

// TestRequestIDSurvivesErrorPaths: the identity headers are set before
// the handler runs, so shed (429), timed-out (504), and cache-hit
// responses all carry them.
func TestRequestIDSurvivesErrorPaths(t *testing.T) {
	do := func(t *testing.T, url, rid, body string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Id", rid)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	t.Run("429", func(t *testing.T) {
		s, ts, _ := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
		hold := make(chan struct{})
		var once sync.Once
		s.testHookAdmitted = func() { once.Do(func() { <-hold }) }
		defer close(hold)
		results := make(chan int, 2)
		for i := 0; i < 2; i++ { // fill the slot, then the queue
			go func() {
				resp, err := http.Post(ts.URL+"/v1/route", "application/json", strings.NewReader(quickBody()))
				if err == nil {
					resp.Body.Close()
					results <- resp.StatusCode
				} else {
					results <- 0
				}
			}()
			if i == 0 {
				waitFor(t, func() bool { return s.InFlight() == 1 })
			}
		}
		waitFor(t, func() bool { return s.Queued() == 1 })
		resp := do(t, ts.URL+"/v1/route", "rid-shed", quickBody())
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("X-Request-Id") != "rid-shed" {
			t.Errorf("429 lost X-Request-Id: %q", resp.Header.Get("X-Request-Id"))
		}
		if resp.Header.Get("traceparent") == "" {
			t.Error("429 lost traceparent")
		}
	})

	t.Run("504", func(t *testing.T) {
		_, ts, _ := newTestServer(t, Config{})
		resp := do(t, ts.URL+"/v1/route", "rid-slow", routeBody(201, 201, 0.125, 300, 1, 1, 199, 199, 1))
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504", resp.StatusCode)
		}
		if resp.Header.Get("X-Request-Id") != "rid-slow" {
			t.Errorf("504 lost X-Request-Id: %q", resp.Header.Get("X-Request-Id"))
		}
	})

	t.Run("cache-hit", func(t *testing.T) {
		_, ts, _ := newTestServer(t, Config{CacheMaxBytes: 1 << 20})
		if resp := do(t, ts.URL+"/v1/route", "rid-warm", quickBody()); resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup status %d", resp.StatusCode)
		}
		resp := do(t, ts.URL+"/v1/route", "rid-hit", quickBody())
		if resp.Header.Get("X-Cache") != "hit" {
			t.Fatalf("second request X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
		}
		if resp.Header.Get("X-Request-Id") != "rid-hit" {
			t.Errorf("cache hit lost X-Request-Id: %q", resp.Header.Get("X-Request-Id"))
		}
	})
}

// TestTracedResultsByteIdentical: sending trace headers must not change
// the computed result. Two fresh servers (no shared cache), same problem,
// one traced and one not — the responses are byte-identical once the
// wall-clock elapsed_ns field is zeroed.
func TestTracedResultsByteIdentical(t *testing.T) {
	norm := func(t *testing.T, raw []byte) []byte {
		t.Helper()
		var rr api.RouteResponse
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatalf("bad body: %v: %s", err, raw)
		}
		rr.Stats.ElapsedNS = 0
		out, err := json.Marshal(rr)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	body := routeBody(32, 32, 0.25, 500, 1, 1, 30, 30, 0)

	_, tsPlain, _ := newTestServer(t, Config{})
	respPlain, rawPlain := postJSON(t, tsPlain.URL+"/v1/route", body)
	if respPlain.StatusCode != http.StatusOK {
		t.Fatalf("plain status %d: %s", respPlain.StatusCode, rawPlain)
	}

	_, tsTraced, _ := newTestServer(t, Config{Sink: telemetry.NewRing(256), SlowThreshold: time.Nanosecond})
	req, _ := http.NewRequest(http.MethodPost, tsTraced.URL+"/v1/route", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", telemetry.NewTraceContext().TraceParent())
	req.Header.Set("X-Request-Id", "rid-diff")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var rawTraced []byte
	func() {
		defer resp.Body.Close()
		buf := make([]byte, 0, len(rawPlain))
		tmp := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		rawTraced = buf
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced status %d: %s", resp.StatusCode, rawTraced)
	}

	a, b := norm(t, rawPlain), norm(t, rawTraced)
	if string(a) != string(b) {
		t.Errorf("traced response diverged from untraced:\nplain:  %s\ntraced: %s", a, b)
	}
}

// TestSlowRequestFlightRecorder: a request over the SLO lands in
// /debug/slow with its complete span tree — phases, search spans, and the
// problem hash — and the slow counters move.
func TestSlowRequestFlightRecorder(t *testing.T) {
	s, ts, m := newTestServer(t, Config{SlowThreshold: time.Nanosecond})
	resp, raw := postJSON(t, ts.URL+"/v1/route", routeBody(16, 16, 0.25, 500, 1, 1, 14, 14, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var rr api.RouteResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}

	if s.FlightRecorder() == nil {
		t.Fatal("SlowThreshold set but no flight recorder")
	}
	if s.FlightRecorder().Slow() != 1 || m.SlowRequests.Value() != 1 {
		t.Fatalf("slow = %d, metric = %d, want 1/1",
			s.FlightRecorder().Slow(), m.SlowRequests.Value())
	}

	dresp, draw := getURL(t, ts.URL+"/debug/slow")
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slow status %d", dresp.StatusCode)
	}
	var page struct {
		SloMS float64               `json:"slo_ms"`
		Slow  int64                 `json:"slow_requests"`
		Trees []*telemetry.SpanTree `json:"trees"`
	}
	if err := json.Unmarshal(draw, &page); err != nil {
		t.Fatalf("/debug/slow not JSON: %v: %s", err, draw)
	}
	if page.Slow != 1 || len(page.Trees) != 1 {
		t.Fatalf("/debug/slow page = %+v", page)
	}
	tree := page.Trees[0]
	if tree.RequestID != resp.Header.Get("X-Request-Id") {
		t.Errorf("tree request id %q != response header %q", tree.RequestID, resp.Header.Get("X-Request-Id"))
	}
	if tree.Status != http.StatusOK || tree.Root == nil {
		t.Fatalf("tree = %+v", tree)
	}
	if tree.Root.Attrs["problem_hash"] != rr.ProblemHash {
		t.Errorf("tree problem_hash = %q, response = %q", tree.Root.Attrs["problem_hash"], rr.ProblemHash)
	}
	phases := map[string]bool{}
	for _, c := range tree.Root.Children {
		phases[c.Name] = true
	}
	for _, want := range []string{"decode", "canonical", "admission", "search", "encode"} {
		if !phases[want] {
			t.Errorf("span tree missing %q phase (has %v)", want, phases)
		}
	}
	// The core search span hangs under the search phase with its stats.
	var search *telemetry.Span
	var walk func(*telemetry.Span)
	walk = func(sp *telemetry.Span) {
		if sp.Name == "search" && sp.Configs > 0 {
			search = sp
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(tree.Root)
	if search == nil {
		t.Error("span tree has no core search span with stats")
	} else if search.Configs != rr.Stats.Configs {
		t.Errorf("search span configs = %d, response stats = %d", search.Configs, rr.Stats.Configs)
	}
}

// TestHitTraceSplitsLayers: a warm hit's and a 304's span trees close the
// cache phase before the write, which gets its own encode phase, and
// never enter admission or search.
func TestHitTraceSplitsLayers(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{SlowThreshold: time.Nanosecond, CacheMaxBytes: 1 << 20})
	body := quickBody()
	resp, raw := postJSON(t, ts.URL+"/v1/route", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if resp, _ = postJSON(t, ts.URL+"/v1/route", body); resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("repeat was not a hit: X-Cache %q", resp.Header.Get("X-Cache"))
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/route", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", resp.Header.Get("ETag"))
	nm, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	nm.Body.Close()
	if nm.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional status %d, want 304", nm.StatusCode)
	}
	trees := s.FlightRecorder().Snapshot(2) // newest first: the 304, then the hit
	if len(trees) != 2 {
		t.Fatalf("%d trees recorded, want 2", len(trees))
	}
	for i, tree := range trees {
		var names []string
		for _, c := range tree.Root.Children {
			names = append(names, c.Name)
		}
		if got := strings.Join(names, ","); got != "decode,canonical,cache,encode" {
			t.Errorf("tree %d (status %d) phases = %s, want decode,canonical,cache,encode", i, tree.Status, got)
		}
	}
}
