package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"clockroute/internal/faultpoint"
)

// TestJSONLOrderingUnderWorkers hammers one JSONL sink from 8 goroutines
// (the planner's worker-pool shape) and asserts the stream stays coherent:
// every line parses, the count is exact, and Seq is the strict 1..N
// emission order. Run with -race: this is also the sink's race test.
func TestJSONLOrderingUnderWorkers(t *testing.T) {
	const workers, perWorker = 8, 500
	var buf bytes.Buffer
	s := NewJSONL(&buf)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Emit(Event{Kind: EventNetStart, TimeNS: Now(), Worker: w, Configs: i})
			}
		}(w)
	}
	wg.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	var n uint64
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d does not parse: %v", n+1, err)
		}
		n++
		if e.Seq != n {
			t.Fatalf("line %d has seq %d: emission order lost", n, e.Seq)
		}
	}
	if n != workers*perWorker {
		t.Fatalf("stream has %d events, want %d", n, workers*perWorker)
	}
}

func TestJSONLStickyError(t *testing.T) {
	s := NewJSONL(failWriter{})
	s.Emit(Event{Kind: EventSearchStart})
	if s.Err() == nil {
		t.Fatal("write error not recorded")
	}
	s.Emit(Event{Kind: EventSearchEnd}) // must not panic or clear the error
	if s.Err() == nil {
		t.Fatal("sticky error lost")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) {
	return 0, &json.UnsupportedValueError{Str: "broken pipe"}
}

func TestJSONLSinkWriteFaultpoint(t *testing.T) {
	if err := faultpoint.Enable("sink.write", "error"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()

	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.Emit(Event{Kind: EventSearchStart})
	if err := s.Err(); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("Err() = %v, want wrapped faultpoint.ErrInjected", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("failing sink wrote %d bytes, want none", buf.Len())
	}
	// Per the Sink contract the failure is sticky and silent: later
	// emissions are no-ops, never panics.
	s.Emit(Event{Kind: EventSearchEnd})
	if buf.Len() != 0 {
		t.Fatal("emission after sticky error reached the writer")
	}
}

func TestRingRetainsMostRecent(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 10; i++ {
		r.Emit(Event{Kind: EventWaveStart, Wave: i})
	}
	if r.Len() != 4 {
		t.Fatalf("ring holds %d, want 4", r.Len())
	}
	got := r.Events()
	for i, e := range got {
		if want := 7 + i; e.Wave != want {
			t.Errorf("event %d has wave %d, want %d (oldest-first)", i, e.Wave, want)
		}
		if want := uint64(7 + i); e.Seq != want {
			t.Errorf("event %d has seq %d, want %d", i, e.Seq, want)
		}
	}

	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 {
		t.Errorf("dump has %d lines, want 4", lines)
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(8)
	r.Emit(Event{Wave: 1})
	r.Emit(Event{Wave: 2})
	got := r.Events()
	if len(got) != 2 || got[0].Wave != 1 || got[1].Wave != 2 {
		t.Fatalf("partial ring = %+v", got)
	}
}

// TestRingConcurrent is the ring's -race exercise.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Emit(Event{Kind: EventNetEnd})
				_ = r.Len()
			}
		}()
	}
	wg.Wait()
	if r.Len() != 32 {
		t.Fatalf("ring holds %d, want 32", r.Len())
	}
}

func TestWithFieldsStampsNetAndWorker(t *testing.T) {
	ring := NewRing(8)
	s := WithFields(ring, "cpu-dsp", 3)
	s.Emit(Event{Kind: EventSearchStart})
	s.Emit(Event{Kind: EventSearchEnd, Net: "already-set"})
	got := ring.Events()
	if got[0].Net != "cpu-dsp" || got[0].Worker != 3 {
		t.Errorf("event not stamped: %+v", got[0])
	}
	if got[1].Net != "already-set" {
		t.Errorf("pre-set net overwritten: %+v", got[1])
	}
	if WithFields(nil, "x", 0) != nil {
		t.Error("WithFields(nil) must stay nil for the no-op fast path")
	}
}

func TestMultiFanOutAndCollapse(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	m := Multi(nil, a, nil, b)
	m.Emit(Event{Kind: EventNetStart})
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("fan-out missed a sink: a=%d b=%d", a.Len(), b.Len())
	}
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("empty Multi must collapse to nil")
	}
	if got := Multi(nil, a); got != a {
		t.Error("single-sink Multi must collapse to the sink itself")
	}
}

func TestEventKindJSON(t *testing.T) {
	b, err := json.Marshal(Event{Kind: EventNetEnd, TimeNS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"net_end"`) {
		t.Errorf("kind not rendered as name: %s", b)
	}
}

func TestProgressTracksInFlight(t *testing.T) {
	p := NewProgress()
	p.Emit(Event{Kind: EventNetStart, Net: "b", Worker: 1, TimeNS: Now()})
	s := p.Snapshot()
	if len(s.InFlight) != 1 || s.InFlight[0].Net != "b" || s.InFlight[0].Worker != 1 {
		t.Fatalf("snapshot after start = %+v", s)
	}
	p.Emit(Event{Kind: EventNetEnd, Net: "b"})
	p.Emit(Event{Kind: EventNetStart, Net: "a", TimeNS: Now()})
	p.Emit(Event{Kind: EventNetEnd, Net: "a", Err: "no path"})
	s = p.Snapshot()
	if s.Done != 1 || s.Failed != 1 || len(s.InFlight) != 0 {
		t.Fatalf("final snapshot = %+v", s)
	}
}

// TestProgressKeysNetsByRequest interleaves two requests' events for one
// net name, as two plans in flight on one server emit them: each keeps
// its own entry, and one request's net_end leaves the other's running.
func TestProgressKeysNetsByRequest(t *testing.T) {
	p := NewProgress()
	p.Emit(Event{Kind: EventNetStart, Request: "r1", Net: "cpu-dsp", Worker: 0, TimeNS: Now()})
	p.Emit(Event{Kind: EventNetStart, Request: "r2", Net: "cpu-dsp", Worker: 1, TimeNS: Now()})
	s := p.Snapshot()
	want := []NetProgress{{Request: "r1", Net: "cpu-dsp", Worker: 0}, {Request: "r2", Net: "cpu-dsp", Worker: 1}}
	if len(s.InFlight) != len(want) {
		t.Fatalf("in flight = %+v, want both requests' nets", s.InFlight)
	}
	for i, w := range want {
		if g := s.InFlight[i]; g.Request != w.Request || g.Net != w.Net || g.Worker != w.Worker {
			t.Errorf("in flight[%d] = %+v, want %+v", i, g, w)
		}
	}
	p.Emit(Event{Kind: EventNetEnd, Request: "r1", Net: "cpu-dsp"})
	s = p.Snapshot()
	if len(s.InFlight) != 1 || s.InFlight[0].Request != "r2" || s.Done != 1 {
		t.Fatalf("after r1's net_end: %+v, want r2's net still in flight", s)
	}
	p.Emit(Event{Kind: EventNetEnd, Request: "r2", Net: "cpu-dsp"})
	if s = p.Snapshot(); len(s.InFlight) != 0 || s.Done != 2 {
		t.Fatalf("final snapshot = %+v", s)
	}
}
