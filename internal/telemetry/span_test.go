package telemetry

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// findSpans collects every span named name anywhere in the tree.
func findSpans(root *Span, name string) []*Span {
	var out []*Span
	var walk func(*Span)
	walk = func(s *Span) {
		if s.Name == name {
			out = append(out, s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	return out
}

func TestRecorderPhasesAndEvents(t *testing.T) {
	tc := NewTraceContext()
	rec := NewRecorder(tc, "req-1", "/v1/plan")

	end := rec.Phase("decode")
	end()
	rec.SetAttr("problem_hash", "abc123")
	rec.SetNetAttr("n0", "problem_hash", "def456")
	endSearch := rec.Phase("search")

	// Two nets' event streams interleaved, as concurrent workers produce.
	base := Now()
	for _, net := range []string{"n0", "n1"} {
		rec.Emit(Event{Kind: EventNetStart, Net: net, Worker: 1, TimeNS: base})
		rec.Emit(Event{Kind: EventSearchStart, Net: net, Algo: "rbp", TimeNS: base + 1})
	}
	for _, net := range []string{"n0", "n1"} {
		rec.Emit(Event{Kind: EventWaveStart, Net: net, Wave: 0, TimeNS: base + 2})
		rec.Emit(Event{Kind: EventWaveStart, Net: net, Wave: 1, TimeNS: base + 3})
		rec.Emit(Event{Kind: EventSearchEnd, Net: net, Configs: 7, Waves: 2, TimeNS: base + 4})
		rec.Emit(Event{Kind: EventNetEnd, Net: net, Algo: "rbp", ElapsedNS: 4, TimeNS: base + 5})
	}
	endSearch()

	tree := rec.Finish(200, nil)
	if tree.TraceID != tc.TraceHex() || tree.RequestID != "req-1" || tree.Status != 200 {
		t.Fatalf("tree identity = %q/%q/%d", tree.TraceID, tree.RequestID, tree.Status)
	}
	if tree.ParentID != tc.SpanHex() {
		t.Errorf("ParentID = %q, want caller span %q", tree.ParentID, tc.SpanHex())
	}
	if tree.Root.EndNS == 0 {
		t.Error("root not closed by Finish")
	}
	if tree.Root.Attrs["problem_hash"] != "abc123" {
		t.Errorf("root attrs = %v", tree.Root.Attrs)
	}

	nets := findSpans(tree.Root, "net")
	if len(nets) != 2 {
		t.Fatalf("got %d net spans, want 2", len(nets))
	}
	for _, n := range nets {
		if n.EndNS == 0 {
			t.Errorf("net %q not closed", n.Net)
		}
		if n.Net == "n0" && n.Attrs["problem_hash"] != "def456" {
			t.Errorf("net n0 attrs = %v (SetNetAttr not applied)", n.Attrs)
		}
		searches := findSpans(n, "search")
		if len(searches) != 1 {
			t.Fatalf("net %q: %d search spans", n.Net, len(searches))
		}
		s := searches[0]
		if s.Configs != 7 || s.Waves != 2 {
			t.Errorf("net %q search stats = %+v", n.Net, s)
		}
		waves := findSpans(s, "wave")
		if len(waves) != 2 {
			t.Fatalf("net %q: %d wave spans", n.Net, len(waves))
		}
		// wave 0 closes when wave 1 starts; wave 1 when the search ends.
		if waves[0].EndNS != waves[1].StartNS {
			t.Errorf("wave 0 end %d != wave 1 start %d", waves[0].EndNS, waves[1].StartNS)
		}
		if waves[1].EndNS == 0 {
			t.Error("last wave not closed by search_end")
		}
	}

	// Phases are direct children of the root, and the net spans hang off
	// the search phase (it was open when the net events arrived).
	var phaseNames []string
	for _, c := range tree.Root.Children {
		phaseNames = append(phaseNames, c.Name)
	}
	if len(phaseNames) != 2 || phaseNames[0] != "decode" || phaseNames[1] != "search" {
		t.Errorf("root children = %v", phaseNames)
	}
	if len(tree.Root.Children[1].Children) != 2 {
		t.Errorf("search phase has %d children, want the 2 nets", len(tree.Root.Children[1].Children))
	}
	// root + 2 phases + per net: net + search + 2 waves.
	if tree.Spans != 1+2+2*4 {
		t.Errorf("Spans = %d", tree.Spans)
	}

	// The tree must serialize (it is the /debug/slow payload).
	if _, err := json.Marshal(tree); err != nil {
		t.Fatalf("tree does not marshal: %v", err)
	}

	// Finish is idempotent and freezes the tree.
	again := rec.Finish(500, nil)
	if again != tree || again.Status != 200 {
		t.Error("second Finish altered the tree")
	}
	rec.Emit(Event{Kind: EventNetStart, Net: "late", TimeNS: Now()})
	if len(findSpans(tree.Root, "net")) != 2 {
		t.Error("event after Finish grew the tree")
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var rec *Recorder
	rec.Phase("decode")()
	rec.SetAttr("k", "v")
	rec.SetNetAttr("n", "k", "v")
	rec.Emit(Event{Kind: EventNetStart})
	if tree := rec.Finish(200, nil); tree != nil {
		t.Error("nil recorder returned a tree")
	}
}

func TestRecorderSpanCap(t *testing.T) {
	rec := NewRecorder(NewTraceContext(), "r", "root")
	for i := 0; i < maxSpansPerTree+100; i++ {
		net := fmt.Sprintf("n%d", i)
		rec.Emit(Event{Kind: EventNetStart, Net: net, TimeNS: int64(i)})
		rec.Emit(Event{Kind: EventNetEnd, Net: net, TimeNS: int64(i + 1)})
	}
	tree := rec.Finish(200, nil)
	if tree.Spans > maxSpansPerTree {
		t.Errorf("Spans = %d exceeds cap %d", tree.Spans, maxSpansPerTree)
	}
	if tree.Dropped != 100+1 { // root occupies one slot
		t.Errorf("Dropped = %d, want %d", tree.Dropped, 101)
	}
}

func TestFlightRecorder(t *testing.T) {
	ring := NewRing(16)
	var m Metrics
	fr := NewFlightRecorder(time.Millisecond, 2, ring, &m)
	if fr.SLO() != time.Millisecond {
		t.Fatalf("SLO = %v", fr.SLO())
	}

	mkTree := func(id string, d time.Duration) *SpanTree {
		root := &Span{ID: "1", Name: "req", StartNS: 0, EndNS: int64(d)}
		return &SpanTree{TraceID: "t-" + id, RequestID: id, Root: root, Spans: 1}
	}

	fr.Observe(mkTree("fast", 0))
	if fr.Slow() != 0 || fr.ConsecutiveSlow() != 0 {
		t.Fatal("fast request counted slow")
	}

	for i, id := range []string{"s1", "s2", "s3"} {
		fr.Observe(mkTree(id, 5*time.Millisecond))
		if fr.ConsecutiveSlow() != int64(i+1) {
			t.Errorf("consecutive = %d after %d slow", fr.ConsecutiveSlow(), i+1)
		}
	}
	if fr.Slow() != 3 || m.SlowRequests.Value() != 3 {
		t.Errorf("slow = %d, metric = %d", fr.Slow(), m.SlowRequests.Value())
	}

	// Ring keeps the newest 2, newest first.
	trees := fr.Snapshot(0)
	if len(trees) != 2 || trees[0].RequestID != "s3" || trees[1].RequestID != "s2" {
		ids := make([]string, len(trees))
		for i, tr := range trees {
			ids[i] = tr.RequestID
		}
		t.Errorf("Snapshot = %v", ids)
	}
	if got := fr.Snapshot(1); len(got) != 1 || got[0].RequestID != "s3" {
		t.Errorf("Snapshot(1) wrong")
	}

	// Slow trees were persisted to the sink as slow_request events with
	// the full tree payload.
	var slowEvents int
	for _, e := range ring.Events() {
		if e.Kind == EventSlowRequest {
			slowEvents++
			if e.Request == "" || e.Trace == "" || e.ElapsedNS == 0 {
				t.Errorf("slow_request event missing identity: %+v", e)
			}
			if _, ok := e.Payload.(*SpanTree); !ok {
				t.Errorf("slow_request payload = %T", e.Payload)
			}
		}
	}
	if slowEvents != 3 {
		t.Errorf("persisted %d slow_request events, want 3", slowEvents)
	}

	// A fast request breaks the consecutive run.
	fr.Observe(mkTree("fast2", 0))
	if fr.ConsecutiveSlow() != 0 {
		t.Error("fast request did not reset the consecutive counter")
	}

	// Nil receiver and nil tree are ignored.
	var nilFR *FlightRecorder
	nilFR.Observe(mkTree("x", time.Second))
	if nilFR.Slow() != 0 || nilFR.ConsecutiveSlow() != 0 || nilFR.Snapshot(0) != nil {
		t.Error("nil flight recorder not inert")
	}
	fr.Observe(nil)
}
