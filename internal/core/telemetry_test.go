package core

import (
	"context"
	"errors"
	"testing"

	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/telemetry"
)

// traceProblem builds a small grid instance that needs a few waves at the
// given period.
func traceProblem(t *testing.T) *Problem {
	t.Helper()
	g := grid.MustNew(21, 5, 0.5)
	return problemOn(t, g, geom.Pt(0, 2), geom.Pt(20, 2))
}

// TestRouteEmitsSearchSpan checks the event bracket of an instrumented
// Route call: search_start, one wave_start per wave, then search_end
// carrying the Stats counters of the result.
func TestRouteEmitsSearchSpan(t *testing.T) {
	p := traceProblem(t)
	ring := telemetry.NewRing(256)
	res, err := Route(context.Background(), p, Request{
		Kind: KindRBP, PeriodPS: 300,
		Options: Options{Telemetry: ring},
	})
	if err != nil {
		t.Fatal(err)
	}
	events := ring.Events()
	if len(events) < 3 {
		t.Fatalf("expected at least start/wave/end, got %d events", len(events))
	}
	if events[0].Kind != telemetry.EventSearchStart || events[0].Algo != "rbp" {
		t.Fatalf("first event = %+v, want search_start/rbp", events[0])
	}
	waves := 0
	for _, e := range events[1 : len(events)-1] {
		if e.Kind != telemetry.EventWaveStart {
			t.Fatalf("interior event = %+v, want wave_start", e)
		}
		if e.Wave != waves {
			t.Fatalf("wave %d announced out of order (event %+v)", waves, e)
		}
		waves++
	}
	if waves != res.Stats.Waves {
		t.Errorf("saw %d wave_start events, Stats.Waves = %d", waves, res.Stats.Waves)
	}
	end := events[len(events)-1]
	if end.Kind != telemetry.EventSearchEnd {
		t.Fatalf("last event = %+v, want search_end", end)
	}
	if end.Err != "" {
		t.Errorf("successful search reported err %q", end.Err)
	}
	if end.Configs != res.Stats.Configs || end.Pushed != res.Stats.Pushed ||
		end.Pruned != res.Stats.Pruned || end.Waves != res.Stats.Waves ||
		end.MaxQSize != res.Stats.MaxQSize {
		t.Errorf("search_end counters %+v diverge from Stats %+v", end, res.Stats)
	}
	if end.LatencyPS != res.Latency {
		t.Errorf("search_end latency %g, result %g", end.LatencyPS, res.Latency)
	}
	if end.ElapsedNS <= 0 {
		t.Error("search_end must carry the elapsed time")
	}
}

// TestRouteEmitsAbortCause aborts a search via MaxConfigs and asserts the
// search_end event records the cause.
func TestRouteEmitsAbortCause(t *testing.T) {
	p := traceProblem(t)
	ring := telemetry.NewRing(64)
	_, err := Route(context.Background(), p, Request{
		Kind: KindRBP, PeriodPS: 300,
		Options: Options{Telemetry: ring, MaxConfigs: 5},
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	events := ring.Events()
	end := events[len(events)-1]
	if end.Kind != telemetry.EventSearchEnd || end.Err == "" {
		t.Fatalf("last event = %+v, want search_end with abort cause", end)
	}
}

// TestRouteTelemetryPreservesTracer checks that a caller-installed Tracer
// still sees every wave and every visit of an instrumented search.
func TestRouteTelemetryPreservesTracer(t *testing.T) {
	p := traceProblem(t)
	ring := telemetry.NewRing(256)
	var tr countingTracer
	res, err := Route(context.Background(), p, Request{
		Kind: KindRBP, PeriodPS: 300,
		Options: Options{Telemetry: ring, Trace: &tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.waves != res.Stats.Waves {
		t.Errorf("tracer saw %d waves, want %d", tr.waves, res.Stats.Waves)
	}
	if tr.visits != res.Stats.Configs {
		t.Errorf("tracer saw %d visits, want %d", tr.visits, res.Stats.Configs)
	}
}

type countingTracer struct {
	waves  int
	visits int
}

func (c *countingTracer) WaveStart(int, float64) { c.waves++ }
func (c *countingTracer) Visit(int, int)         { c.visits++ }

// TestRouteZeroValueNoAllocOverhead pins the no-op fast path: Route with
// no telemetry must allocate exactly as much as calling the algorithm
// directly, so uninstrumented benchmarks are untouched.
func TestRouteZeroValueNoAllocOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime randomizes sync.Pool retention; alloc parity is asserted without -race")
	}
	p := traceProblem(t)
	ctx := context.Background()
	direct := testing.AllocsPerRun(10, func() {
		if _, err := RBP(p, 300, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	routed := testing.AllocsPerRun(10, func() {
		if _, err := Route(ctx, p, Request{Kind: KindRBP, PeriodPS: 300}); err != nil {
			t.Fatal(err)
		}
	})
	if routed != direct {
		t.Errorf("Route allocates %.0f/op vs %.0f/op direct: zero-value path regressed", routed, direct)
	}
}

// TestRouteTelemetryNoAllocOverhead pins the instrumented path's cost:
// with a sink installed, Route emits its search and wave events without a
// single allocation beyond the uninstrumented search.
func TestRouteTelemetryNoAllocOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime randomizes sync.Pool retention; alloc parity is asserted without -race")
	}
	p := traceProblem(t)
	ctx := context.Background()
	sink := telemetry.NewMetrics()
	plain := testing.AllocsPerRun(10, func() {
		if _, err := Route(ctx, p, Request{Kind: KindRBP, PeriodPS: 300}); err != nil {
			t.Fatal(err)
		}
	})
	traced := testing.AllocsPerRun(10, func() {
		if _, err := Route(ctx, p, Request{Kind: KindRBP, PeriodPS: 300, Options: Options{Telemetry: sink}}); err != nil {
			t.Fatal(err)
		}
	})
	if traced != plain {
		t.Errorf("Route allocates %.0f/op with a sink vs %.0f/op without", traced, plain)
	}
	if sink.Searches.Value() == 0 || sink.Waves.Value() == 0 {
		t.Errorf("sink saw %d searches, %d waves", sink.Searches.Value(), sink.Waves.Value())
	}
}

// TestSynchronizedTracerSafeUnderConcurrency shares one tracer across
// parallel searches; run with -race.
func TestSynchronizedTracerSafeUnderConcurrency(t *testing.T) {
	p := traceProblem(t)
	var tr countingTracer
	shared := SynchronizedTracer(&tr)

	const runs = 8
	done := make(chan *Result, runs)
	for i := 0; i < runs; i++ {
		go func() {
			res, err := RBP(p, 300, Options{Trace: shared})
			if err != nil {
				t.Error(err)
				done <- nil
				return
			}
			done <- res
		}()
	}
	wantVisits := 0
	for i := 0; i < runs; i++ {
		if res := <-done; res != nil {
			wantVisits += res.Stats.Configs
		}
	}
	if tr.visits != wantVisits {
		t.Errorf("fan-in lost visits: saw %d, want %d", tr.visits, wantVisits)
	}
	if SynchronizedTracer(nil) != nil {
		t.Error("SynchronizedTracer(nil) must stay nil")
	}
	if SynchronizedTracer(shared) != shared {
		t.Error("double wrapping must be idempotent")
	}
}

// TestStatsElapsedFilledByEveryAlgorithm pins that all core entry points
// report wall time (the latch extension is covered in its own package).
func TestStatsElapsedFilledByEveryAlgorithm(t *testing.T) {
	p := traceProblem(t)
	runs := map[string]func() (*Result, error){
		"fastpath":  func() (*Result, error) { return FastPath(p, Options{}) },
		"rbp":       func() (*Result, error) { return RBP(p, 300, Options{}) },
		"rbp-slack": func() (*Result, error) { return RBP(p, 300, Options{MaximizeSlack: true}) },
		"gals":      func() (*Result, error) { return GALS(p, 300, 450, Options{}) },
	}
	for name, run := range runs {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.Elapsed <= 0 {
			t.Errorf("%s left Stats.Elapsed unset", name)
		}
	}
}
