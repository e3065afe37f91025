package planner_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"clockroute/internal/bench"
	"clockroute/internal/core"
	"clockroute/internal/planner"
	"clockroute/internal/tech"
	"clockroute/internal/telemetry"
)

// TestRunParallelMatchesSerial32Nets routes 32 mixed RBP/GALS nets on one
// shared SoC25mm grid with 8 workers and asserts the batch engine's results
// are identical to the serial run — latencies, register counts, modes, and
// the routed paths themselves. Run with -race: this is also the data-race
// stress for the shared grid/model.
func TestRunParallelMatchesSerial32Nets(t *testing.T) {
	pl, specs, err := bench.SoCNetWorkload(1.0, 32)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := pl.PlanNets(specs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := pl.RunParallel(context.Background(), 8, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Nets) != len(specs) || len(par.Nets) != len(specs) {
		t.Fatalf("net counts: serial %d, parallel %d, want %d", len(serial.Nets), len(par.Nets), len(specs))
	}

	modes := map[planner.Mode]int{}
	for i := range specs {
		s, p := serial.Nets[i], par.Nets[i]
		if s.Err != nil {
			t.Fatalf("net %q unroutable in serial run: %v", specs[i].Name, s.Err)
		}
		if p.Err != nil {
			t.Fatalf("net %q unroutable in parallel run: %v", specs[i].Name, p.Err)
		}
		if p.Spec.Name != specs[i].Name {
			t.Fatalf("result %d is net %q, want %q: ordering lost", i, p.Spec.Name, specs[i].Name)
		}
		if s.Mode != p.Mode || s.LatencyPS != p.LatencyPS || s.Registers != p.Registers ||
			s.Buffers != p.Buffers || s.SrcCycles != p.SrcCycles || s.DstCycles != p.DstCycles ||
			s.Stats.Configs != p.Stats.Configs {
			t.Errorf("net %q diverged: serial %+v vs parallel %+v", specs[i].Name, s, p)
		}
		if len(s.Path.Nodes) != len(p.Path.Nodes) {
			t.Errorf("net %q path length diverged", specs[i].Name)
			continue
		}
		for j := range s.Path.Nodes {
			if s.Path.Nodes[j] != p.Path.Nodes[j] || s.Path.Gates[j] != p.Path.Gates[j] {
				t.Errorf("net %q path diverged at step %d", specs[i].Name, j)
				break
			}
		}
		modes[p.Mode]++
	}
	if modes[planner.ModeRBP] == 0 || modes[planner.ModeGALS] == 0 {
		t.Errorf("workload must mix modes, got %v", modes)
	}
	if ws := par.Stats.Workers; ws != 8 {
		t.Errorf("parallel plan ran with %d workers, want 8", ws)
	}
	if serial.Stats.TotalConfigs != par.Stats.TotalConfigs {
		t.Errorf("aggregate configs diverged: %d vs %d", serial.Stats.TotalConfigs, par.Stats.TotalConfigs)
	}
	// Every summed effort counter is schedule-independent, so the parallel
	// aggregates must be exactly the serial ones.
	if serial.Stats.TotalPushed != par.Stats.TotalPushed ||
		serial.Stats.TotalPruned != par.Stats.TotalPruned ||
		serial.Stats.TotalWaves != par.Stats.TotalWaves ||
		serial.Stats.NetsRouted != par.Stats.NetsRouted ||
		serial.Stats.NetsFailed != par.Stats.NetsFailed {
		t.Errorf("aggregate sums diverged: serial %+v vs parallel %+v", serial.Stats, par.Stats)
	}
	if par.Stats.NetsRouted != len(specs) || par.Stats.NetsFailed != 0 {
		t.Errorf("outcome counts wrong: %+v", par.Stats)
	}
	if par.Stats.TotalConfigs == 0 || par.Stats.MaxQSize == 0 || par.Stats.Elapsed <= 0 ||
		par.Stats.TotalPushed == 0 || par.Stats.TotalWaves == 0 {
		t.Errorf("aggregate stats not populated: %+v", par.Stats)
	}
	for i := range par.Nets {
		n := &par.Nets[i]
		if n.Stats.Elapsed <= 0 || n.Elapsed <= 0 {
			t.Errorf("net %q missing wall time: search %v, net %v", n.Spec.Name, n.Stats.Elapsed, n.Elapsed)
		}
	}
}

// countingTracer counts callbacks without locking, so under -race a call
// from any plan worker is also a data race.
type countingTracer struct {
	waves  int
	visits int
}

func (c *countingTracer) WaveStart(int, float64) { c.waves++ }
func (c *countingTracer) Visit(int, int)         { c.visits++ }

// TestRunParallelHandsSearchesNoTracer: a planner's Tracer observes one
// search at a time, so a plan's searches get none, at any worker count.
func TestRunParallelHandsSearchesNoTracer(t *testing.T) {
	pl, specs, err := bench.SoCNetWorkload(1.0, 16)
	if err != nil {
		t.Fatal(err)
	}
	var tr countingTracer
	traced, err := planner.New(pl.Floorplan(), tech.CongPan70nm(), core.Options{Trace: &tr})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := traced.RunParallel(context.Background(), 8, specs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.Workers != 8 || plan.Stats.NetsRouted != len(specs) {
		t.Fatalf("stats = %+v, want %d nets routed on 8 workers", plan.Stats, len(specs))
	}
	if tr.waves != 0 || tr.visits != 0 {
		t.Errorf("tracer saw %d waves and %d visits, want none", tr.waves, tr.visits)
	}
}

// TestRunParallelEmitsNetSpans routes a batch with a telemetry sink and
// checks the per-net span protocol: every net started exactly once with a
// valid worker id, and ended with its effort counters, the bound layer's
// included.
func TestRunParallelEmitsNetSpans(t *testing.T) {
	pl, specs, err := bench.SoCNetWorkload(1.0, 16)
	if err != nil {
		t.Fatal(err)
	}
	ring := telemetry.NewRing(1 << 14)
	metrics := telemetry.NewMetrics()
	traced, err := planner.New(pl.Floorplan(), tech.CongPan70nm(),
		core.Options{Telemetry: telemetry.Multi(ring, metrics)})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := traced.RunParallel(context.Background(), 8, specs)
	if err != nil {
		t.Fatal(err)
	}

	started := map[string]int{}
	ended := map[string]int{}
	searches, boundPruned, probeConfigs := 0, 0, 0
	for _, e := range ring.Events() {
		switch e.Kind {
		case telemetry.EventNetStart:
			started[e.Net]++
			if e.Worker < 0 || e.Worker >= 8 {
				t.Errorf("net %q started by worker %d", e.Net, e.Worker)
			}
		case telemetry.EventNetEnd:
			ended[e.Net]++
			boundPruned += e.BoundPruned
			probeConfigs += e.ProbeConfigs
			if e.Configs == 0 || e.ElapsedNS <= 0 {
				t.Errorf("net_end for %q missing effort: %+v", e.Net, e)
			}
			if e.Algo != "rbp" && e.Algo != "gals" {
				t.Errorf("net_end for %q has algo %q", e.Net, e.Algo)
			}
		case telemetry.EventSearchStart:
			searches++
			if e.Net == "" {
				t.Error("search event not labeled with its net")
			}
		}
	}
	for _, s := range specs {
		if started[s.Name] != 1 || ended[s.Name] != 1 {
			t.Errorf("net %q spans: started %d ended %d, want 1/1",
				s.Name, started[s.Name], ended[s.Name])
		}
	}
	if searches < len(specs) {
		t.Errorf("saw %d search spans for %d nets", searches, len(specs))
	}
	if boundPruned == 0 || boundPruned != plan.Stats.TotalBoundPruned ||
		probeConfigs == 0 || probeConfigs != plan.Stats.TotalProbeConfigs {
		t.Errorf("net_end bound_pruned/probe_configs sum to %d/%d, plan totals %d/%d, want equal and nonzero",
			boundPruned, probeConfigs, plan.Stats.TotalBoundPruned, plan.Stats.TotalProbeConfigs)
	}

	// The metrics registry consumed the same stream: its aggregates must
	// match the plan's schedule-independent sums.
	if got, want := metrics.Configs.Value(), int64(plan.Stats.TotalConfigs); got != want {
		t.Errorf("metrics configs %d, plan %d", got, want)
	}
	if got := metrics.NetsDone.Value() + metrics.NetsFailed.Value(); got != int64(len(specs)) {
		t.Errorf("metrics nets %d, want %d", got, len(specs))
	}
	if metrics.NetsInFlight.Value() != 0 {
		t.Errorf("nets still in flight after the run: %d", metrics.NetsInFlight.Value())
	}
	if metrics.WorkerBusyNS.Value() <= 0 {
		t.Error("worker busy-time not accumulated")
	}
}

// TestRunParallelCancellation routes a heavier workload under a deadline
// that expires mid-search and asserts the aborted nets fail with
// core.ErrAborted, promptly.
func TestRunParallelCancellation(t *testing.T) {
	pl, specs, err := bench.SoCNetWorkload(0.25, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	plan, err := pl.RunParallel(ctx, 4, specs)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	aborted := 0
	for _, n := range plan.Nets {
		if n.Err == nil {
			continue
		}
		if !errors.Is(n.Err, core.ErrAborted) {
			t.Errorf("net %q failed with %v, want ErrAborted", n.Spec.Name, n.Err)
		}
		if errors.Is(n.Err, core.ErrNoPath) {
			t.Errorf("net %q abort must not claim infeasibility: %v", n.Spec.Name, n.Err)
		}
		aborted++
	}
	if aborted == 0 {
		t.Error("deadline mid-search aborted no nets")
	}
	// Each 0.25 mm-pitch net takes far longer than the deadline serially;
	// a prompt abort returns orders of magnitude sooner.
	if elapsed > 5*time.Second {
		t.Errorf("cancellation not prompt: whole plan took %v", elapsed)
	}
}

// TestRunParallelValidation mirrors PlanNets' spec validation.
func TestRunParallelValidation(t *testing.T) {
	pl, specs, err := bench.SoCNetWorkload(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.RunParallel(context.Background(), 4, nil); err == nil {
		t.Error("empty net list must fail")
	}
	dup := []planner.NetSpec{specs[0], specs[0]}
	if _, err := pl.RunParallel(context.Background(), 4, dup); err == nil {
		t.Error("duplicate names must fail")
	}
}
