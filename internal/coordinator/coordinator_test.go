package coordinator

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"clockroute/api"
	"clockroute/client"
)

func TestRingDeterministicAndBalanced(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1 := newRing(urls)
	r2 := newRing(urls)
	counts := make([]int, len(urls))
	const keys = 4096
	for k := uint64(0); k < keys; k++ {
		key := k * 0x9e3779b97f4a7c15 // spread the probe keys over the ring
		a, b := r1.owner(key), r2.owner(key)
		if a != b {
			t.Fatalf("ring not deterministic: key %d -> %d vs %d", key, a, b)
		}
		counts[a]++
	}
	for i, n := range counts {
		// With 64 virtual points per backend the split is not exact, but a
		// backend owning under half its fair share means the ring is broken.
		if n < keys/len(urls)/2 {
			t.Fatalf("backend %d owns only %d of %d keys: %v", i, n, keys, counts)
		}
	}
}

func TestRingWalkVisitsEachBackendOnce(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r := newRing(urls)
	for k := uint64(0); k < 256; k++ {
		var order []int
		r.walk(k*0x9e3779b97f4a7c15, func(idx int) bool {
			order = append(order, idx)
			return true
		})
		if len(order) != len(urls) {
			t.Fatalf("walk visited %d backends, want %d: %v", len(order), len(urls), order)
		}
		seen := make(map[int]bool)
		for _, idx := range order {
			if seen[idx] {
				t.Fatalf("walk revisited backend %d: %v", idx, order)
			}
			seen[idx] = true
		}
		if own := r.owner(k * 0x9e3779b97f4a7c15); own != order[0] {
			t.Fatalf("owner %d != first walk hop %d", own, order[0])
		}
	}
}

func TestRingConsistencyUnderBackendLoss(t *testing.T) {
	// Removing one backend must only move that backend's keys: every key
	// owned by a survivor keeps its owner. This is the property that keeps
	// the other backends' result caches warm through a partition.
	all := []string{"http://a:1", "http://b:1", "http://c:1"}
	rAll := newRing(all)
	rLess := newRing([]string{"http://a:1", "http://c:1"})
	for k := uint64(0); k < 2048; k++ {
		key := k * 0x9e3779b97f4a7c15
		ownAll := rAll.owner(key)
		if ownAll == 1 {
			continue // b's keys are the ones allowed to move
		}
		// Map rAll indices {0,2} onto rLess indices {0,1}.
		want := 0
		if ownAll == 2 {
			want = 1
		}
		if got := rLess.owner(key); got != want {
			t.Fatalf("key %#x moved from surviving backend %d to %d", key, want, got)
		}
	}
}

func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(3, time.Second)
	allow := func() bool { ok, _ := b.Allow(now); return ok }

	if b.State(now) != StateClosed || !allow() {
		t.Fatal("new breaker must be closed and admitting")
	}
	b.Failure(now)
	b.Failure(now)
	if b.State(now) != StateClosed {
		t.Fatalf("state after 2 failures = %s, want closed", b.State(now))
	}
	b.Failure(now)
	if b.State(now) != StateOpen || allow() {
		t.Fatal("threshold failures must open the circuit")
	}
	if b.Failures() != 3 {
		t.Fatalf("failures = %d, want 3", b.Failures())
	}

	// Cooldown elapses: exactly one probe is granted.
	now = now.Add(time.Second)
	if b.State(now) != StateHalfOpen {
		t.Fatalf("state after cooldown = %s, want half-open", b.State(now))
	}
	if !allow() {
		t.Fatal("half-open must grant one probe")
	}
	if allow() {
		t.Fatal("second concurrent probe granted")
	}

	// Probe fails: reopen with a fresh cooldown.
	b.Failure(now)
	if b.State(now) != StateOpen || allow() {
		t.Fatal("failed probe must reopen the circuit")
	}
	now = now.Add(time.Second)
	if !allow() {
		t.Fatal("second cooldown must grant a probe again")
	}
	b.Success()
	if b.State(now) != StateClosed || b.Failures() != 0 || !allow() {
		t.Fatal("successful probe must close the circuit and reset failures")
	}
}

// TestBreakerReturnProbe covers the verdict-free resolution path: a
// returned grant frees the half-open circuit for a fresh probe, while a
// stale token (its grant already resolved by Success or Failure) is
// ignored, so a late return can never release someone else's probe.
func TestBreakerReturnProbe(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(1, time.Second)

	b.Failure(now) // threshold 1: open
	now = now.Add(time.Second)
	ok, tok := b.Allow(now)
	if !ok || tok == 0 {
		t.Fatalf("half-open Allow = (%v, %d), want a granted probe token", ok, tok)
	}
	if ok, _ := b.Allow(now); ok {
		t.Fatal("second probe granted while the first is outstanding")
	}

	// The probe's exchange ends with no verdict: return the grant and the
	// circuit must stay half-open and grant again.
	b.ReturnProbe(tok)
	if b.State(now) != StateHalfOpen {
		t.Fatalf("state after return = %s, want half-open", b.State(now))
	}
	ok2, tok2 := b.Allow(now)
	if !ok2 || tok2 == 0 {
		t.Fatal("returned grant did not free the circuit for a fresh probe")
	}

	// Stale return: tok belongs to a resolved grant and must not release
	// the in-flight probe tok2.
	b.ReturnProbe(tok)
	if ok, _ := b.Allow(now); ok {
		t.Fatal("stale token released a newer in-flight probe")
	}

	// Failure resolves tok2 and reopens; a late return of tok2 must not
	// flip probing under the open state either.
	b.Failure(now)
	b.ReturnProbe(tok2)
	if b.State(now) != StateOpen {
		t.Fatalf("state after failed probe = %s, want open", b.State(now))
	}
	now = now.Add(time.Second)
	if ok, _ := b.Allow(now); !ok {
		t.Fatal("cooldown after resolved probe must grant again")
	}
}

// TestCanceledProbeExchangeReturnsGrant drives the leak the probe-token
// plumbing exists to prevent: a half-open grant is consumed by a live
// session whose context is then canceled mid-exchange. fail()
// deliberately withholds the Failure verdict (a canceled context proves
// nothing about backend health), so without ReturnProbe the circuit
// would stay half-open with its single probe slot occupied forever —
// refusing every future exchange and the health prober alike.
func TestCanceledProbeExchangeReturnsGrant(t *testing.T) {
	// A backend that never answers: draining the body without responding
	// stalls the probe exchange until the session context tears it down
	// (the read unblocks when the canceled client closes the connection).
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
	}))
	defer ts.Close()

	c, err := New(Config{
		Backends:         []string{ts.URL},
		FailureThreshold: 1,
		Cooldown:         time.Millisecond,
		ClientOptions:    []client.Option{client.WithMaxAttempts(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	br := c.backends[0].br
	br.Failure(time.Now())           // threshold 1: circuit opens
	time.Sleep(5 * time.Millisecond) // cooldown elapses: next Allow grants the probe

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hdr := &api.PlanStreamHeader{Grid: api.GridSpec{W: 8, H: 8, PitchMM: 0.25}}
	nets := make(chan Net, 1)
	nets <- Net{Spec: api.NetSpec{
		Name: "n0",
		Src:  api.Point{X: 1, Y: 1}, Dst: api.Point{X: 6, Y: 6},
		SrcPeriodPS: 500, DstPeriodPS: 500,
	}}
	close(nets)

	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Plan(ctx, hdr, 1, nets, func(api.NetResult) {})
	}()
	time.Sleep(50 * time.Millisecond) // let the probe exchange reach the stalled backend
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Plan did not return after cancellation")
	}

	if st := br.State(time.Now()); st != StateHalfOpen {
		t.Fatalf("state after canceled probe exchange = %q, want half-open", st)
	}
	if ok, _ := br.Allow(time.Now()); !ok {
		t.Fatal("probe grant leaked: half-open circuit refuses a fresh probe after a canceled exchange")
	}
}

func TestNewRejectsBadBackends(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no backends accepted")
	}
	if _, err := New(Config{Backends: []string{"http://a:1", "http://a:1/"}}); err == nil {
		t.Fatal("duplicate backends accepted")
	}
	if _, err := New(Config{Backends: []string{"http://a:1", "  "}}); err == nil {
		t.Fatal("blank backend accepted")
	}
}

// TestWritePrometheusStrict parses the coordinator's labeled per-backend
// series with the same strictness telemetry's exposition test applies:
// every line must be well-formed, each backend must appear in each family,
// and the latency histograms must be cumulative with +Inf == count.
func TestWritePrometheusStrict(t *testing.T) {
	c, err := New(Config{Backends: []string{"http://a:1", "http://b:1"}})
	if err != nil {
		t.Fatal(err)
	}
	c.backends[0].br.Failure(time.Now()) // one consecutive failure on a
	c.backends[1].lat.Observe(3)
	c.backends[1].lat.Observe(700)

	var buf bytes.Buffer
	c.WritePrometheus(&buf)
	// The exposition's bytes are pinned: the golden file is this
	// fixture's output as rendered before the per-backend histograms moved
	// onto telemetry's formatter.
	golden, err := os.ReadFile("testdata/write_prometheus.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("exposition differs from testdata/write_prometheus.golden:\n%s", buf.Bytes())
	}

	type sample struct {
		name   string
		labels map[string]string
		value  float64
	}
	var samples []sample
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, valText := line[:sp], line[sp+1:]
		var val float64
		if valText == "+Inf" {
			val = math.Inf(1)
		} else {
			v, err := strconv.ParseFloat(valText, 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			val = v
		}
		s := sample{name: key, labels: map[string]string{}, value: val}
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("malformed labels in %q", line)
			}
			s.name = key[:i]
			for _, kv := range strings.Split(key[i+1:len(key)-1], ",") {
				eq := strings.IndexByte(kv, '=')
				if eq < 0 {
					t.Fatalf("malformed label %q in %q", kv, line)
				}
				lv, err := strconv.Unquote(kv[eq+1:])
				if err != nil {
					t.Fatalf("label value not quoted in %q: %v", line, err)
				}
				s.labels[kv[:eq]] = lv
			}
		}
		samples = append(samples, s)
	}

	find := func(name, backend string, extra map[string]string) *sample {
		for i := range samples {
			s := &samples[i]
			if s.name != name || s.labels["backend"] != backend {
				continue
			}
			ok := true
			for k, v := range extra {
				if s.labels[k] != v {
					ok = false
				}
			}
			if ok {
				return s
			}
		}
		return nil
	}

	for _, be := range []string{"http://a:1", "http://b:1"} {
		if s := find("clockroute_coord_backend_up", be, nil); s == nil {
			t.Fatalf("missing up gauge for %s", be)
		}
		if s := find("clockroute_coord_backend_failures", be, nil); s == nil {
			t.Fatalf("missing failures gauge for %s", be)
		}
		if s := find("clockroute_coord_backend_latency_ms_bucket", be, map[string]string{"le": "+Inf"}); s == nil {
			t.Fatalf("missing +Inf latency bucket for %s", be)
		}
	}
	if s := find("clockroute_coord_backend_up", "http://a:1", nil); s.value != 1 {
		t.Fatalf("up{a} = %g, want 1 (one failure under threshold keeps it closed)", s.value)
	}
	if s := find("clockroute_coord_backend_failures", "http://a:1", nil); s.value != 1 {
		t.Fatalf("failures{a} = %g, want 1", s.value)
	}
	if s := find("clockroute_coord_backend_latency_ms_count", "http://b:1", nil); s.value != 2 {
		t.Fatalf("latency count{b} = %g, want 2", s.value)
	}
	inf := find("clockroute_coord_backend_latency_ms_bucket", "http://b:1", map[string]string{"le": "+Inf"})
	if inf.value != 2 {
		t.Fatalf("latency +Inf bucket{b} = %g, want 2", inf.value)
	}
	// Cumulative: every finite bucket <= the +Inf bucket, and monotone in le.
	prev := -1.0
	var lastLE float64
	for i := range samples {
		s := &samples[i]
		if s.name != "clockroute_coord_backend_latency_ms_bucket" || s.labels["backend"] != "http://b:1" {
			continue
		}
		le := math.Inf(1)
		if s.labels["le"] != "+Inf" {
			v, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil {
				t.Fatalf("bad le %q", s.labels["le"])
			}
			le = v
		}
		if le < lastLE {
			t.Fatalf("buckets out of order: le %g after %g", le, lastLE)
		}
		lastLE = le
		if s.value < prev {
			t.Fatalf("bucket counts not cumulative at le=%g: %g < %g", le, s.value, prev)
		}
		prev = s.value
	}
}

func TestBackendStateJSONShape(t *testing.T) {
	c, err := New(Config{Backends: []string{"http://a:1", "http://b:1"}})
	if err != nil {
		t.Fatal(err)
	}
	c.backends[1].setErr(fmt.Errorf("boom"))
	states := c.States()
	if len(states) != 2 {
		t.Fatalf("States() returned %d entries", len(states))
	}
	if states[0].URL != "http://a:1" || states[0].State != StateClosed || states[0].LastError != "" {
		t.Fatalf("backend 0 state wrong: %+v", states[0])
	}
	if states[1].LastError != "boom" {
		t.Fatalf("backend 1 last error = %q", states[1].LastError)
	}
}
