package planner_test

import (
	"context"
	"fmt"
	"testing"

	"clockroute/internal/bench"
	"clockroute/internal/faultpoint"
	"clockroute/internal/planner"
)

// dupWorkload builds a mixed RBP/GALS workload whose tail re-poses earlier
// nets under fresh names, so a batch routes canonical duplicates, each on
// its own. Returns the planner and the specs.
func dupWorkload(t *testing.T, n, dups int) (*planner.Planner, []planner.NetSpec) {
	t.Helper()
	pl, specs, err := bench.SoCNetWorkload(1.0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dups; i++ {
		s := specs[i%n]
		s.Name = fmt.Sprintf("%s-dup%d", s.Name, i)
		specs = append(specs, s)
	}
	return pl, specs
}

// sameRouting asserts two results route identically: every field a client
// could observe except the wall-clock ones.
func sameRouting(t *testing.T, label string, a, b *planner.NetResult) {
	t.Helper()
	if (a.Err == nil) != (b.Err == nil) {
		t.Fatalf("%s: error mismatch: %v vs %v", label, a.Err, b.Err)
	}
	if a.Err != nil {
		return
	}
	if a.Mode != b.Mode || a.LatencyPS != b.LatencyPS || a.Registers != b.Registers ||
		a.Buffers != b.Buffers || a.SrcCycles != b.SrcCycles || a.DstCycles != b.DstCycles ||
		a.WireMM != b.WireMM || a.WireWidth != b.WireWidth {
		t.Fatalf("%s: results diverged:\n%+v\nvs\n%+v", label, a, b)
	}
	// The whole effort record must match too — ProbeConfigs, BoundPruned,
	// Pushed, Pruned, Killed, Waves, MaxQSize — wall time aside.
	sa, sb := a.Stats, b.Stats
	sa.Elapsed, sb.Elapsed = 0, 0
	if sa != sb {
		t.Fatalf("%s: stats diverged:\n%+v\nvs\n%+v", label, sa, sb)
	}
	if len(a.Path.Nodes) != len(b.Path.Nodes) {
		t.Fatalf("%s: path length %d vs %d", label, len(a.Path.Nodes), len(b.Path.Nodes))
	}
	for j := range a.Path.Nodes {
		if a.Path.Nodes[j] != b.Path.Nodes[j] || a.Path.Gates[j] != b.Path.Gates[j] {
			t.Fatalf("%s: path diverged at step %d", label, j)
		}
	}
}

// TestBatchMatchesRouteNet is the differential of the batch engine: the
// duplicate-heavy workload runs as one 8-worker batch and net by net
// through RouteNet, and every observable field must match.
func TestBatchMatchesRouteNet(t *testing.T) {
	pl, specs := dupWorkload(t, 16, 16)
	batch, err := pl.RunParallel(context.Background(), 8, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		iso := pl.RouteNet(specs[i])
		sameRouting(t, specs[i].Name, &batch.Nets[i], &iso)
	}
}

// TestRunStreamMatchesRunParallel feeds the same duplicate-heavy workload
// through the streaming entry point and asserts results and aggregate
// stats are identical to the buffered batch, elapsed time aside.
func TestRunStreamMatchesRunParallel(t *testing.T) {
	pl, specs := dupWorkload(t, 16, 16)
	batch, err := pl.RunParallel(context.Background(), 8, specs)
	if err != nil {
		t.Fatal(err)
	}

	in := make(chan planner.NetSpec, 4)
	go func() {
		for _, s := range specs {
			in <- s
		}
		close(in)
	}()
	byName := make(map[string]planner.NetResult, len(specs))
	stats := pl.RunStream(context.Background(), 8, in, func(res planner.NetResult) {
		byName[res.Spec.Name] = res
	})
	if len(byName) != len(specs) {
		t.Fatalf("stream emitted %d results, want %d", len(byName), len(specs))
	}
	for i := range specs {
		got, ok := byName[specs[i].Name]
		if !ok {
			t.Fatalf("net %q never emitted", specs[i].Name)
		}
		sameRouting(t, specs[i].Name, &batch.Nets[i], &got)
	}
	b := batch.Stats
	if stats.NetsRouted != b.NetsRouted || stats.NetsFailed != b.NetsFailed ||
		stats.TotalConfigs != b.TotalConfigs || stats.TotalPushed != b.TotalPushed ||
		stats.TotalPruned != b.TotalPruned || stats.TotalBoundPruned != b.TotalBoundPruned ||
		stats.TotalWaves != b.TotalWaves || stats.Workers != b.Workers {
		t.Errorf("stream stats %+v diverged from batch %+v", stats, b)
	}
}

// TestRunStreamEmpty pins the streaming edge case: an empty stream
// reports zero stats, matching an all-cached buffered plan.
func TestRunStreamEmpty(t *testing.T) {
	pl, _, err := bench.SoCNetWorkload(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	empty := make(chan planner.NetSpec)
	close(empty)
	stats := pl.RunStream(context.Background(), 4, empty, func(planner.NetResult) {
		t.Error("emit called on empty stream")
	})
	if stats != (planner.PlanStats{}) {
		t.Errorf("empty stream stats = %+v, want zero", stats)
	}
}

// runStreamByName streams specs through pl and indexes the results by net
// name.
func runStreamByName(t *testing.T, pl *planner.Planner, specs []planner.NetSpec) (map[string]planner.NetResult, planner.PlanStats) {
	t.Helper()
	in := make(chan planner.NetSpec, 4)
	go func() {
		for _, s := range specs {
			in <- s
		}
		close(in)
	}()
	byName := make(map[string]planner.NetResult, len(specs))
	stats := pl.RunStream(context.Background(), 4, in, func(res planner.NetResult) {
		byName[res.Spec.Name] = res
	})
	if len(byName) != len(specs) {
		t.Fatalf("stream emitted %d results, want %d", len(byName), len(specs))
	}
	return byName, stats
}

// TestStreamChaosContainedPanicHealsAndDoesNotPoison arms core.wave_push
// to panic once deep inside a search of a duplicate-heavy streamed plan.
// The panic is contained at the search boundary and healed by the planner's
// retry-once policy on a fresh scratch: every net, the injured one and its
// duplicates included, must report the same routing as an uninjured run.
func TestStreamChaosContainedPanicHealsAndDoesNotPoison(t *testing.T) {
	pl, specs := dupWorkload(t, 8, 24)
	clean, err := pl.RunParallel(context.Background(), 4, specs)
	if err != nil {
		t.Fatal(err)
	}

	if err := faultpoint.Enable("core.wave_push", "panic@200"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()

	byName, stats := runStreamByName(t, pl, specs)
	if stats.NetsPanicked != 1 || stats.NetsRetried != 1 {
		t.Fatalf("NetsPanicked/NetsRetried = %d/%d, want 1/1 (one injected, healed search)",
			stats.NetsPanicked, stats.NetsRetried)
	}
	for i := range specs {
		got := byName[specs[i].Name]
		sameRouting(t, specs[i].Name, &clean.Nets[i], &got)
		if got.Panicked && !got.Retried {
			t.Errorf("net %q panicked without the healing retry", specs[i].Name)
		}
	}
}

// TestStreamChaosEscapedPanicFailsOneNetOnly arms core.search in panic
// mode, whose panic escapes the search's own containment and is recovered
// only at the engine's worker boundary — past the planner's retry. Exactly
// one net may fail, and every other net, duplicates of the dead one
// included, must match the uninjured run.
func TestStreamChaosEscapedPanicFailsOneNetOnly(t *testing.T) {
	pl, specs := dupWorkload(t, 8, 24)
	clean, err := pl.RunParallel(context.Background(), 4, specs)
	if err != nil {
		t.Fatal(err)
	}

	if err := faultpoint.Enable("core.search", "panic@3"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()

	byName, _ := runStreamByName(t, pl, specs)
	dead := 0
	for i := range specs {
		got := byName[specs[i].Name]
		if got.Err != nil {
			dead++
			if !got.Panicked {
				t.Errorf("net %q failed without the panic flag: %v", specs[i].Name, got.Err)
			}
			continue
		}
		sameRouting(t, specs[i].Name, &clean.Nets[i], &got)
	}
	if dead != 1 {
		t.Errorf("%d nets failed, want exactly 1 (the injected panic)", dead)
	}
}
