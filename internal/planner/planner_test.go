package planner

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"clockroute/internal/core"
	"clockroute/internal/faultpoint"
	"clockroute/internal/floorplan"
	"clockroute/internal/geom"
	"clockroute/internal/route"
	"clockroute/internal/tech"
	"clockroute/internal/telemetry"
)

// testPlanner builds a planner over a coarse 25 mm SoC so tests stay fast.
func testPlanner(t *testing.T) (*Planner, *floorplan.Floorplan) {
	t.Helper()
	fp, err := floorplan.SoC25mm(0.5)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(fp, tech.CongPan70nm(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pl, fp
}

func TestNetBetweenPicksModesFromPeriods(t *testing.T) {
	_, fp := testPlanner(t)
	// cpu (500 ps) -> dsp (300 ps): different domains.
	cross, err := NetBetween(fp, "c2d", Endpoint{"cpu", floorplan.SideEast}, Endpoint{"dsp", floorplan.SideWest}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if cross.SrcPeriodPS != 500 || cross.DstPeriodPS != 300 {
		t.Errorf("cross periods = %g/%g", cross.SrcPeriodPS, cross.DstPeriodPS)
	}
	// sram0 and sram1 have no local clock: both take the default.
	same, err := NetBetween(fp, "m2m", Endpoint{"sram0", floorplan.SideEast}, Endpoint{"sram1", floorplan.SideWest}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if same.SrcPeriodPS != 400 || same.DstPeriodPS != 400 {
		t.Errorf("same-domain periods = %g/%g", same.SrcPeriodPS, same.DstPeriodPS)
	}
	if _, err := NetBetween(fp, "bad", Endpoint{"nope", floorplan.SideEast}, Endpoint{"dsp", floorplan.SideWest}, 400); err == nil {
		t.Error("unknown block must fail")
	}
	if _, err := NetBetween(fp, "bad", Endpoint{"cpu", floorplan.SideEast}, Endpoint{"dsp", floorplan.SideWest}, 0); err == nil {
		t.Error("zero default period must fail")
	}
}

func TestRouteNetRBP(t *testing.T) {
	pl, fp := testPlanner(t)
	spec, err := NetBetween(fp, "m2m", Endpoint{"sram0", floorplan.SideEast}, Endpoint{"sram1", floorplan.SideWest}, 400)
	if err != nil {
		t.Fatal(err)
	}
	res := pl.RouteNet(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Mode != ModeRBP {
		t.Errorf("mode = %v, want rbp", res.Mode)
	}
	if res.SrcCycles != res.Registers+1 || res.DstCycles != 0 {
		t.Errorf("cycles = %d/%d with %d regs", res.SrcCycles, res.DstCycles, res.Registers)
	}
	if res.LatencyPS != 400*float64(res.SrcCycles) {
		t.Errorf("latency %g != 400 * %d", res.LatencyPS, res.SrcCycles)
	}
	if res.WireMM <= 0 {
		t.Error("wirelength not reported")
	}
}

func TestRouteNetGALS(t *testing.T) {
	pl, fp := testPlanner(t)
	spec, err := NetBetween(fp, "c2d", Endpoint{"cpu", floorplan.SideEast}, Endpoint{"dsp", floorplan.SideWest}, 400)
	if err != nil {
		t.Fatal(err)
	}
	res := pl.RouteNet(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Mode != ModeGALS {
		t.Errorf("mode = %v, want gals", res.Mode)
	}
	if res.Path.FIFOIndex() < 0 {
		t.Error("GALS net must carry an MCFIFO")
	}
	want := 500*float64(res.SrcCycles) + 300*float64(res.DstCycles)
	if res.LatencyPS != want {
		t.Errorf("latency %g != %g", res.LatencyPS, want)
	}
}

func TestRouteNetErrors(t *testing.T) {
	pl, _ := testPlanner(t)
	bad := pl.RouteNet(NetSpec{Name: "x", Src: geom.Pt(0, 0), Dst: geom.Pt(1, 0), SrcPeriodPS: 0, DstPeriodPS: 300})
	if bad.Err == nil {
		t.Error("zero period must fail")
	}
	off := pl.RouteNet(NetSpec{Name: "x", Src: geom.Pt(-1, 0), Dst: geom.Pt(1, 0), SrcPeriodPS: 300, DstPeriodPS: 300})
	if off.Err == nil {
		t.Error("off-die endpoint must fail")
	}
	// Endpoint inside a hard IP cannot host the port register.
	inIP := pl.RouteNet(NetSpec{Name: "x", Src: geom.Pt(10, 10), Dst: geom.Pt(30, 30), SrcPeriodPS: 300, DstPeriodPS: 300})
	if inIP.Err == nil {
		t.Error("endpoint inside an IP must fail")
	}
}

func TestPlanNets(t *testing.T) {
	pl, fp := testPlanner(t)
	var specs []NetSpec
	for _, nd := range []struct {
		name     string
		from, to Endpoint
	}{
		{"cpu-dsp", Endpoint{"cpu", floorplan.SideEast}, Endpoint{"dsp", floorplan.SideWest}},
		{"cpu-sram0", Endpoint{"cpu", floorplan.SideSouth}, Endpoint{"sram0", floorplan.SideNorth}},
		{"dsp-sram1", Endpoint{"dsp", floorplan.SideNorth}, Endpoint{"sram1", floorplan.SideSouth}},
		{"sram0-sram1", Endpoint{"sram0", floorplan.SideEast}, Endpoint{"sram1", floorplan.SideWest}},
	} {
		s, err := NetBetween(fp, nd.name, nd.from, nd.to, 400)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	plan, err := pl.PlanNets(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Nets) != 4 {
		t.Fatalf("planned %d nets", len(plan.Nets))
	}
	if len(plan.Failed()) != 0 {
		t.Fatalf("failures: %+v", plan.Failed())
	}
	if plan.TotalWireMM() <= 0 {
		t.Error("total wirelength missing")
	}

	var buf bytes.Buffer
	if err := plan.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	rep := buf.String()
	for _, want := range []string{"cpu-dsp", "cpu-sram0", "dsp-sram1", "LATENCY", "gals", "rbp"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	// Report is sorted by descending latency.
	lines := strings.Split(strings.TrimSpace(rep), "\n")
	if len(lines) != 5 {
		t.Fatalf("report has %d lines", len(lines))
	}
}

func TestPlanNetsValidation(t *testing.T) {
	pl, _ := testPlanner(t)
	if _, err := pl.PlanNets(nil); err == nil {
		t.Error("empty net list must fail")
	}
	dup := []NetSpec{
		{Name: "a", Src: geom.Pt(0, 0), Dst: geom.Pt(5, 5), SrcPeriodPS: 300, DstPeriodPS: 300},
		{Name: "a", Src: geom.Pt(1, 1), Dst: geom.Pt(6, 6), SrcPeriodPS: 300, DstPeriodPS: 300},
	}
	if _, err := pl.PlanNets(dup); err == nil {
		t.Error("duplicate names must fail")
	}
	anon := []NetSpec{{Src: geom.Pt(0, 0), Dst: geom.Pt(5, 5), SrcPeriodPS: 300, DstPeriodPS: 300}}
	if _, err := pl.PlanNets(anon); err == nil {
		t.Error("empty name must fail")
	}
}

func TestPlanReportsPartialFailure(t *testing.T) {
	pl, _ := testPlanner(t)
	specs := []NetSpec{
		{Name: "ok", Src: geom.Pt(0, 0), Dst: geom.Pt(10, 0), SrcPeriodPS: 900, DstPeriodPS: 900},
		// 12.5 mm at 60 ps: hopeless.
		{Name: "doomed", Src: geom.Pt(0, 2), Dst: geom.Pt(25, 2), SrcPeriodPS: 60, DstPeriodPS: 60},
	}
	plan, err := pl.PlanNets(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Failed()) != 1 || plan.Failed()[0].Spec.Name != "doomed" {
		t.Fatalf("failed = %+v", plan.Failed())
	}
	var buf bytes.Buffer
	if err := plan.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FAILED") {
		t.Error("report must flag the failed net")
	}
}

// sharedEdges counts the grid edges of b that a also uses.
func sharedEdges(a, b *route.Path) int {
	used := map[[2]int]bool{}
	for i := 1; i < len(a.Nodes); i++ {
		u, v := a.Nodes[i-1], a.Nodes[i]
		used[[2]int{u, v}], used[[2]int{v, u}] = true, true
	}
	n := 0
	for i := 1; i < len(b.Nodes); i++ {
		if used[[2]int{b.Nodes[i-1], b.Nodes[i]}] {
			n++
		}
	}
	return n
}

func TestPlanNetsExclusiveForcesDetours(t *testing.T) {
	pl, _ := testPlanner(t)
	// Two identical nets: independent planning may give both the same
	// resources; exclusive planning must give the second net different
	// edges (or fail), and must not mutate the shared base grid.
	specs := []NetSpec{
		{Name: "a", Src: geom.Pt(0, 0), Dst: geom.Pt(12, 0), SrcPeriodPS: 900, DstPeriodPS: 900},
		{Name: "b", Src: geom.Pt(0, 0), Dst: geom.Pt(12, 0), SrcPeriodPS: 900, DstPeriodPS: 900},
	}
	// Endpoints are shared, which exclusive planning blocks after net "a"
	// (its port registers occupy the sites), so use distinct endpoints.
	specs[1].Src, specs[1].Dst = geom.Pt(0, 1), geom.Pt(12, 1)

	indep, err := pl.PlanNets(specs)
	if err != nil {
		t.Fatal(err)
	}
	excl, err := pl.PlanNetsExclusive(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(excl.Failed()) != 0 {
		t.Fatalf("exclusive failures: %+v", excl.Failed())
	}

	// Net b's exclusive route must not reuse any edge of net a's route.
	if sharedEdges(excl.Nets[0].Path, excl.Nets[1].Path) != 0 {
		t.Fatalf("exclusive plan shares an edge between nets")
	}

	// Exclusive planning can only lengthen routes.
	if excl.TotalWireMM() < indep.TotalWireMM()-1e-9 {
		t.Errorf("exclusive wire %g < independent %g", excl.TotalWireMM(), indep.TotalWireMM())
	}

	// The base grid must be untouched: re-planning independently still works
	// identically.
	again, err := pl.PlanNets(specs)
	if err != nil {
		t.Fatal(err)
	}
	if again.Nets[0].LatencyPS != indep.Nets[0].LatencyPS {
		t.Error("exclusive planning mutated the shared grid")
	}
}

func TestPlanNetsExclusiveReportsBlockedNet(t *testing.T) {
	pl, _ := testPlanner(t)
	// Saturate a narrow corridor: wall off all rows except 0 and 1 near the
	// start, then route two nets through; the second may detour or fail,
	// but the plan call itself must succeed and stay consistent.
	specs := []NetSpec{
		{Name: "first", Src: geom.Pt(0, 0), Dst: geom.Pt(20, 0), SrcPeriodPS: 900, DstPeriodPS: 900},
		{Name: "second", Src: geom.Pt(0, 0), Dst: geom.Pt(20, 0), SrcPeriodPS: 900, DstPeriodPS: 900},
	}
	plan, err := pl.PlanNetsExclusive(specs)
	if err != nil {
		t.Fatal(err)
	}
	// The second net shares the first's endpoints, which became obstacles:
	// it must fail rather than silently share.
	if plan.Nets[1].Err == nil {
		t.Error("second net reusing reserved endpoints should fail")
	}
}

// TestPlanNetsExclusiveContainsPanic arms engine.task to panic on the
// second net of an exclusive plan. The batch engine contains it: that net
// fails wrapping core.ErrInternal, and the nets on either side route, the
// third around the first's reserved edges.
func TestPlanNetsExclusiveContainsPanic(t *testing.T) {
	pl, _ := testPlanner(t)
	specs := []NetSpec{
		{Name: "first", Src: geom.Pt(0, 0), Dst: geom.Pt(12, 0), SrcPeriodPS: 900, DstPeriodPS: 900},
		{Name: "dies", Src: geom.Pt(0, 3), Dst: geom.Pt(12, 3), SrcPeriodPS: 900, DstPeriodPS: 900},
		// Routed alone, "third" runs along 10 of "first"'s edges.
		{Name: "third", Src: geom.Pt(1, 1), Dst: geom.Pt(11, 0), SrcPeriodPS: 900, DstPeriodPS: 900},
	}
	first, third := pl.RouteNet(specs[0]), pl.RouteNet(specs[2])
	if first.Err != nil || third.Err != nil || sharedEdges(first.Path, third.Path) == 0 {
		t.Fatalf("independent routes must succeed and share edges: %v, %v", first.Err, third.Err)
	}

	if err := faultpoint.Enable("engine.task", "panic@2"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()
	plan, err := pl.PlanNetsExclusive(specs)
	if err != nil {
		t.Fatal(err)
	}
	if n := plan.Nets[1]; !errors.Is(n.Err, core.ErrInternal) || !n.Panicked {
		t.Errorf("net %q: err %v, panicked %v; want a contained panic", n.Spec.Name, n.Err, n.Panicked)
	}
	a, c := plan.Nets[0], plan.Nets[2]
	if a.Err != nil || c.Err != nil {
		t.Fatalf("nets around the panic must route: %v, %v", a.Err, c.Err)
	}
	if sharedEdges(a.Path, c.Path) != 0 {
		t.Error("the third net reuses the first net's reserved edges")
	}
	if st := plan.Stats; st.NetsRouted != 2 || st.NetsFailed != 1 || st.NetsPanicked != 1 || st.Workers != 1 {
		t.Errorf("stats = %+v, want 2 routed, 1 failed, 1 panicked on 1 worker", st)
	}
}

// TestPlanNetsExclusiveEmitsNetSpans: an exclusive plan with a telemetry
// sink opens and closes one net span per net, failed nets included.
func TestPlanNetsExclusiveEmitsNetSpans(t *testing.T) {
	fp, err := floorplan.SoC25mm(0.5)
	if err != nil {
		t.Fatal(err)
	}
	ring := telemetry.NewRing(1 << 12)
	pl, err := New(fp, tech.CongPan70nm(), core.Options{Telemetry: ring})
	if err != nil {
		t.Fatal(err)
	}
	specs := []NetSpec{
		{Name: "first", Src: geom.Pt(0, 0), Dst: geom.Pt(12, 0), SrcPeriodPS: 900, DstPeriodPS: 900},
		// Shares the first net's endpoints, which it reserved: fails.
		{Name: "second", Src: geom.Pt(0, 0), Dst: geom.Pt(12, 0), SrcPeriodPS: 900, DstPeriodPS: 900},
		{Name: "third", Src: geom.Pt(0, 1), Dst: geom.Pt(12, 1), SrcPeriodPS: 900, DstPeriodPS: 900},
	}
	plan, err := pl.PlanNetsExclusive(specs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.NetsRouted != 2 || plan.Stats.NetsFailed != 1 {
		t.Fatalf("stats = %+v, want 2 routed and 1 failed", plan.Stats)
	}
	started, ended := map[string]int{}, map[string]int{}
	for _, e := range ring.Events() {
		switch e.Kind {
		case telemetry.EventNetStart:
			started[e.Net]++
		case telemetry.EventNetEnd:
			ended[e.Net]++
		}
	}
	for _, s := range specs {
		if started[s.Name] != 1 || ended[s.Name] != 1 {
			t.Errorf("net %q spans: started %d ended %d, want 1/1", s.Name, started[s.Name], ended[s.Name])
		}
	}
}

func TestWireWidthSelection(t *testing.T) {
	pl, _ := testPlanner(t)
	long := NetSpec{
		Name: "long", Src: geom.Pt(0, 0), Dst: geom.Pt(45, 45),
		SrcPeriodPS: 400, DstPeriodPS: 400,
	}

	nominal := pl.RouteNet(long)
	if nominal.Err != nil {
		t.Fatal(nominal.Err)
	}
	if nominal.WireWidth != 1 {
		t.Errorf("default width = %g, want 1", nominal.WireWidth)
	}

	long.WireWidths = []float64{0.5, 1, 2}
	swept := pl.RouteNet(long)
	if swept.Err != nil {
		t.Fatal(swept.Err)
	}
	// The half-width wire is faster per mm for this library (see tech
	// tests), so the sweep must not do worse than nominal and should pick a
	// non-nominal width when it wins.
	if swept.LatencyPS > nominal.LatencyPS {
		t.Errorf("width sweep worsened latency: %g > %g", swept.LatencyPS, nominal.LatencyPS)
	}
	if swept.LatencyPS < nominal.LatencyPS && swept.WireWidth == 1 {
		t.Error("sweep improved latency but reports nominal width")
	}

	// The swept net's effort is the sum of its widths' searches (the
	// peak queue their maximum); the answer is the winning width's.
	var sum core.Stats
	for _, w := range long.WireWidths {
		one := long
		one.WireWidths = []float64{w}
		res := pl.RouteNet(one)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		sum.Configs += res.Stats.Configs
		sum.Pushed += res.Stats.Pushed
		sum.Pruned += res.Stats.Pruned
		sum.Killed += res.Stats.Killed
		sum.Waves += res.Stats.Waves
		sum.BoundPruned += res.Stats.BoundPruned
		sum.ProbeConfigs += res.Stats.ProbeConfigs
		sum.MaxQSize = max(sum.MaxQSize, res.Stats.MaxQSize)
		if w == swept.WireWidth && (res.LatencyPS != swept.LatencyPS || res.Registers != swept.Registers) {
			t.Errorf("width %g alone: %g ps, %d regs; in the sweep %g ps, %d regs",
				w, res.LatencyPS, res.Registers, swept.LatencyPS, swept.Registers)
		}
	}
	got := swept.Stats
	got.Elapsed = 0
	if got != sum {
		t.Errorf("swept effort = %+v, want the widths' sum %+v", got, sum)
	}

	// All widths infeasible still reports an error.
	doomed := NetSpec{
		Name: "doomed", Src: geom.Pt(0, 2), Dst: geom.Pt(25, 2),
		SrcPeriodPS: 60, DstPeriodPS: 60, WireWidths: []float64{0.5, 1, 2},
	}
	if res := pl.RouteNet(doomed); res.Err == nil {
		t.Error("all-width infeasible net must fail")
	}
}
