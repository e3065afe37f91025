package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clockroute/api"
	"clockroute/client"
	"clockroute/internal/telemetry"
)

// streamNets builds n nets over a small set of distinct problems on a
// w×h grid, mixing RBP (equal periods) and GALS (unequal) modes.
func streamNets(n, w, h int) []api.NetSpec {
	periods := [][2]float64{{500, 500}, {500, 650}, {610, 610}, {700, 500}}
	nets := make([]api.NetSpec, n)
	for i := range nets {
		pp := periods[i%len(periods)]
		k := i % 8
		nets[i] = api.NetSpec{
			Name:        fmt.Sprintf("s%04d", i),
			Src:         api.Point{X: 1 + k, Y: 1},
			Dst:         api.Point{X: w - 2, Y: h - 2 - k},
			SrcPeriodPS: pp[0],
			DstPeriodPS: pp[1],
		}
	}
	return nets
}

func streamHeader(w, h int) *api.PlanStreamHeader {
	return &api.PlanStreamHeader{
		Grid:    api.GridSpec{W: w, H: h, PitchMM: 0.25},
		Workers: 4,
	}
}

// zeroElapsed strips the only legitimately nondeterministic field.
func zeroElapsed(nr api.NetResult) api.NetResult {
	nr.ElapsedNS = 0
	return nr
}

// TestPlanStreamMatchesBuffered is the transport differential: the same
// plan through the buffered endpoint and the NDJSON stream must produce
// byte-identical per-net results modulo elapsed_ns, and matching stats.
// Run under -race, this also stresses the emit path against the decoder's
// cache-hit writes.
func TestPlanStreamMatchesBuffered(t *testing.T) {
	const W, H = 24, 24
	nets := streamNets(24, W, H)

	// Cache disabled on both servers so each transport routes every net.
	_, tsBuf, mBuf := newTestServer(t, Config{})
	breq := &api.PlanRequest{Grid: api.GridSpec{W: W, H: H, PitchMM: 0.25}, Workers: 4, Nets: nets}
	body, _ := json.Marshal(breq)
	resp, raw := postJSON(t, tsBuf.URL+"/v1/plan", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("buffered status %d: %s", resp.StatusCode, raw)
	}
	var buffered api.PlanResponse
	if err := json.Unmarshal(raw, &buffered); err != nil {
		t.Fatal(err)
	}

	_, tsStr, mStr := newTestServer(t, Config{})
	c := client.New(tsStr.URL)
	got := make(map[string]api.NetResult, len(nets))
	stats, err := c.PlanStream(context.Background(), streamHeader(W, H), client.NetsFromSlice(nets),
		func(nr api.NetResult) error {
			got[nr.Name] = nr
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(nets) {
		t.Fatalf("stream returned %d results, want %d", len(got), len(nets))
	}
	for _, want := range buffered.Nets {
		g, ok := got[want.Name]
		if !ok {
			t.Fatalf("net %q missing from stream", want.Name)
		}
		wj, _ := json.Marshal(zeroElapsed(want))
		gj, _ := json.Marshal(zeroElapsed(g))
		if !bytes.Equal(wj, gj) {
			t.Errorf("net %q diverged:\nbuffered %s\nstreamed %s", want.Name, wj, gj)
		}
	}
	bs := buffered.Stats
	if stats.NetsRouted != bs.NetsRouted || stats.NetsFailed != bs.NetsFailed ||
		stats.TotalConfigs != bs.TotalConfigs || stats.Workers != bs.Workers {
		t.Errorf("stream stats %+v diverged from buffered %+v", stats, bs)
	}
	// Every net that enters the engine leaves it, in either wire form.
	for form, m := range map[string]*telemetry.Metrics{"buffered": mBuf, "streamed": mStr} {
		inFlight, ended := m.NetsInFlight.Value(), m.NetsDone.Value()+m.NetsFailed.Value()
		if inFlight != 0 || ended != int64(len(nets)) {
			t.Errorf("%s: nets_in_flight = %d, nets_done + nets_failed = %d, want 0 and %d", form, inFlight, ended, len(nets))
		}
	}
}

// TestPlanStreamServesAndFillsCache streams the same plan twice against a
// cache-enabled server: the second pass must be answered entirely from the
// cache (cached flags on every line, zero search stats plus the cached-net
// adjustment in the trailer) with results identical to the first.
func TestPlanStreamServesAndFillsCache(t *testing.T) {
	const W, H = 24, 24
	nets := streamNets(12, W, H)
	_, ts, m := newTestServer(t, Config{CacheMaxBytes: 16 << 20})
	c := client.New(ts.URL)

	first := make(map[string]api.NetResult)
	if _, err := c.PlanStream(context.Background(), streamHeader(W, H), client.NetsFromSlice(nets),
		func(nr api.NetResult) error { first[nr.Name] = nr; return nil }); err != nil {
		t.Fatal(err)
	}

	second := make(map[string]api.NetResult)
	stats, err := c.PlanStream(context.Background(), streamHeader(W, H), client.NetsFromSlice(nets),
		func(nr api.NetResult) error { second[nr.Name] = nr; return nil })
	if err != nil {
		t.Fatal(err)
	}
	for name, nr := range second {
		if !nr.Cached {
			t.Errorf("net %q not served from cache on second stream", name)
		}
		nr.Cached, nr.ElapsedNS = false, 0
		want := zeroElapsed(first[name])
		want.Cached = false
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(nr)
		if !bytes.Equal(wj, gj) {
			t.Errorf("net %q cached result diverged:\n%s\nvs\n%s", name, wj, gj)
		}
	}
	if stats.NetsRouted != len(nets) || stats.TotalConfigs != 0 || stats.Workers != 0 {
		t.Errorf("fully cached stream stats = %+v", stats)
	}
	if m.CacheHits.Value() < int64(len(nets)) {
		t.Errorf("cache hits = %d, want >= %d", m.CacheHits.Value(), len(nets))
	}
}

// TestPlanStreamLargePlanBoundedMemory drives large plans through the
// stream and asserts the properties that justify the transport: results
// are emitted as they finish, not after the batch, and the server-side
// heap grows by far less than the materialized plan would need — neither
// side buffers all nets, and the planner keeps no result it has emitted.
func TestPlanStreamLargePlanBoundedMemory(t *testing.T) {
	// 10,000 nets over 32 problems, on the production cache config: the
	// first result arrives while the client still has most of the plan
	// left to upload, and the cache answers the repeats.
	t.Run("repeats", func(t *testing.T) {
		const W, H = 24, 24
		const total = 10_000
		nets := streamNets(total, W, H)
		_, ts, _ := newTestServer(t, Config{CacheMaxBytes: 64 << 20})
		c := client.New(ts.URL)

		// The source uploads 100 nets and then refuses to continue until a
		// result has come back: a server that buffered the whole batch before
		// emitting (the non-streaming behavior) would deadlock here, waiting
		// for an EOF the client withholds. The outer context bounds the test
		// against exactly that regression.
		firstResult := make(chan struct{})
		var results atomic.Int64
		source := func(emit func(api.NetSpec) error) error {
			for i, n := range nets {
				if i == 100 {
					select {
					case <-firstResult:
					case <-time.After(30 * time.Second):
						return fmt.Errorf("no result after %d nets: server is buffering the batch", i)
					}
				}
				if err := emit(n); err != nil {
					return err
				}
			}
			return nil
		}

		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)

		stats, err := c.PlanStream(context.Background(), streamHeader(W, H), source,
			func(nr api.NetResult) error {
				if results.Add(1) == 1 {
					close(firstResult)
				}
				if nr.Error != "" {
					return fmt.Errorf("net %q failed: %s", nr.Name, nr.Error)
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if n := results.Load(); n != total {
			t.Fatalf("received %d results, want %d", n, total)
		}
		if stats.NetsRouted != total {
			t.Errorf("trailer NetsRouted = %d, want %d", stats.NetsRouted, total)
		}
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		if delta := int64(after.HeapAlloc) - int64(before.HeapAlloc); delta > 64<<20 {
			t.Errorf("heap grew by %d MiB across a 10k-net stream", delta>>20)
		}
	})

	// 20,000 distinct RBP nets with the cache off, so every net is
	// searched: near the end of the stream the live heap must not hold
	// the results already emitted.
	t.Run("distinct", func(t *testing.T) {
		if raceEnabled {
			t.Skip("heap readings are meaningless under the race detector")
		}
		const W, H, total, at = 33, 33, 20_000, 19_500
		nets := distinctNets(total, W, H)
		_, ts, _ := newTestServer(t, Config{})
		c := client.New(ts.URL)
		hdr := &api.PlanStreamHeader{Grid: api.GridSpec{W: W, H: H, PitchMM: 0.25}, Workers: 2}
		source := func(emit func(api.NetSpec) error) error {
			for _, n := range nets {
				if err := emit(n); err != nil {
					return err
				}
			}
			return nil
		}

		runtime.GC()
		var before, live runtime.MemStats
		runtime.ReadMemStats(&before)
		results := 0
		stats, err := c.PlanStream(context.Background(), hdr, source, func(nr api.NetResult) error {
			if nr.Error != "" {
				return fmt.Errorf("net %q failed: %s", nr.Name, nr.Error)
			}
			if results++; results == at {
				runtime.GC()
				runtime.ReadMemStats(&live)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if results != total || stats.NetsRouted != total {
			t.Fatalf("received %d results, trailer NetsRouted = %d, want %d", results, stats.NetsRouted, total)
		}
		delta := int64(live.HeapAlloc) - int64(before.HeapAlloc)
		t.Logf("live heap grew by %.1f MiB by result %d", float64(delta)/(1<<20), at)
		if delta > 12<<20 {
			t.Errorf("live heap grew by %.1f MiB by result %d of %d distinct nets, want under 12 MiB",
				float64(delta)/(1<<20), at, total)
		}
	})
}

// distinctNets builds n RBP nets at 600 ps on a w×h grid, no two of them
// the same problem: net i pairs interior node i mod m with the node
// 1 + i/m places after it, m being the interior's node count.
func distinctNets(n, w, h int) []api.NetSpec {
	iw, m := w-2, (w-2)*(h-2)
	at := func(k int) api.Point { return api.Point{X: 1 + k%iw, Y: 1 + k/iw} }
	nets := make([]api.NetSpec, n)
	for i := range nets {
		a := i % m
		nets[i] = api.NetSpec{
			Name:        fmt.Sprintf("d%05d", i),
			Src:         at(a),
			Dst:         at((a + 1 + i/m) % m),
			SrcPeriodPS: 600,
			DstPeriodPS: 600,
		}
	}
	return nets
}

// TestPlanStreamBadLineTrailer sends a stream whose second net line is
// malformed: the first net's result must still be delivered, and the
// stream must end with an error trailer under the already-committed 200.
func TestPlanStreamBadLineTrailer(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	var b strings.Builder
	hdr, _ := json.Marshal(streamHeader(24, 24))
	b.Write(hdr)
	b.WriteByte('\n')
	n0, _ := json.Marshal(streamNets(1, 24, 24)[0])
	b.Write(n0)
	b.WriteString("\n{\"name\":\"broken\",\"nope\":1}\n")

	resp, err := http.Post(ts.URL+"/v1/plan", api.ContentTypeNDJSON, strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (stream committed before the bad line)", resp.StatusCode)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("unparsable response line %q: %v", sc.Text(), err)
		}
		lines = append(lines, v)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d response lines, want result + error trailer: %v", len(lines), lines)
	}
	if name := lines[0]["name"]; name != "s0000" {
		t.Errorf("first line is %v, want net s0000's result", lines[0])
	}
	if msg, _ := lines[1]["error"].(string); !strings.Contains(msg, "net 2") {
		t.Errorf("trailer = %v, want an error naming net line 2", lines[1])
	}
}

// explodingBody yields r's bytes, then panics where it would report EOF.
type explodingBody struct{ r io.Reader }

func (b explodingBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		panic("body exploded")
	}
	return n, err
}

func (explodingBody) Close() error { return nil }

// TestPlanStreamPanicEndsWithTrailer: a panic in a committed stream's
// decode loop is contained — the results already routed stay valid, an
// error trailer ends the stream, the panic is counted, and the router is
// drained before the handler returns, leaving no goroutine behind.
func TestPlanStreamPanicEndsWithTrailer(t *testing.T) {
	before := runtime.NumGoroutine()
	m := telemetry.NewMetrics()
	s := New(Config{Metrics: m})
	var body strings.Builder
	hdr, _ := json.Marshal(streamHeader(24, 24))
	body.Write(append(hdr, '\n'))
	for _, n := range streamNets(3, 24, 24) {
		line, _ := json.Marshal(n)
		body.Write(append(line, '\n'))
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", explodingBody{strings.NewReader(body.String())})
	req.Header.Set("Content-Type", api.ContentTypeNDJSON)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)

	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if rec.Code != http.StatusOK || len(lines) != 4 {
		t.Fatalf("status %d with %d lines, want 200 with 3 results + trailer:\n%s", rec.Code, len(lines), rec.Body)
	}
	var tr api.PlanStreamTrailer
	if err := json.Unmarshal([]byte(lines[3]), &tr); err != nil || !strings.Contains(tr.Error, "body exploded") {
		t.Fatalf("trailer %s (%v), want the contained panic", lines[3], err)
	}
	if s.Panics() != 1 || m.RequestPanics.Value() != 1 {
		t.Errorf("panics = %d, request_panics = %d, want 1/1", s.Panics(), m.RequestPanics.Value())
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

// TestPlanStreamDuplicateNameTrailer mirrors the buffered endpoint's 400:
// a duplicate name terminates the stream with an error trailer.
func TestPlanStreamDuplicateNameTrailer(t *testing.T) {
	const W, H = 24, 24
	nets := streamNets(2, W, H)
	nets[1].Name = nets[0].Name
	_, ts, _ := newTestServer(t, Config{})
	c := client.New(ts.URL)
	_, err := c.PlanStream(context.Background(), streamHeader(W, H), client.NetsFromSlice(nets),
		func(api.NetResult) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "duplicate net name") {
		t.Fatalf("err = %v, want duplicate net name trailer", err)
	}
}

// TestPlanStreamBadHeaderIs400 checks that failures before the stream
// commits still map onto plain HTTP statuses.
func TestPlanStreamBadHeaderIs400(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/plan", api.ContentTypeNDJSON,
		strings.NewReader(`{"grid":{"w":1,"h":1,"pitch_mm":0.25}}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for an invalid header grid", resp.StatusCode)
	}
}

// TestPlanStreamClientDisconnectMidStream cancels the client halfway
// through a large stream and asserts the server drains cleanly: in-flight
// work unwinds, no goroutine is stranded on the spec channel, and the
// instance keeps serving fresh requests afterwards.
func TestPlanStreamClientDisconnectMidStream(t *testing.T) {
	const W, H = 24, 24
	s, ts, _ := newTestServer(t, Config{})
	c := client.New(ts.URL, client.WithMaxAttempts(1))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := c.PlanStream(ctx, streamHeader(W, H), client.NetsFromSlice(streamNets(2000, W, H)),
		func(nr api.NetResult) error {
			cancel() // first result: hang up mid-stream
			return nil
		})
	if err == nil {
		t.Fatal("stream survived a mid-stream disconnect")
	}

	// The handler must unwind: wait for the in-flight accounting to drain.
	deadline := time.Now().Add(10 * time.Second)
	for s.InFlight() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server still has %d in-flight requests after disconnect", s.InFlight())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// And keep serving: a fresh stream over the same nets succeeds.
	n := 0
	if _, err := c.PlanStream(context.Background(), streamHeader(W, H),
		client.NetsFromSlice(streamNets(4, W, H)), func(api.NetResult) error { n++; return nil }); err != nil {
		t.Fatalf("post-disconnect stream failed: %v", err)
	}
	if n != 4 {
		t.Fatalf("post-disconnect stream returned %d results, want 4", n)
	}
}
