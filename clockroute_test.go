package clockroute_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"clockroute"
)

func TestPublicAPIEndToEndRBP(t *testing.T) {
	g := clockroute.NewGrid(41, 11, 0.5)
	g.AddObstacle(clockroute.R(10, 3, 20, 8))
	tc := clockroute.DefaultTech()
	prob, err := clockroute.NewProblem(g, tc, clockroute.Pt(0, 5), clockroute.Pt(40, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := clockroute.RBP(prob, 400, clockroute.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lat, err := clockroute.VerifySingleClock(res.Path, g, tc, 400)
	if err != nil {
		t.Fatal(err)
	}
	if lat != res.Latency {
		t.Errorf("verified %g != reported %g", lat, res.Latency)
	}
}

func TestPublicAPIEndToEndGALS(t *testing.T) {
	g := clockroute.NewGrid(41, 5, 0.5)
	tc := clockroute.DefaultTech()
	prob, err := clockroute.NewProblem(g, tc, clockroute.Pt(0, 2), clockroute.Pt(40, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := clockroute.GALS(prob, 300, 250, clockroute.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clockroute.VerifyMultiClock(res.Path, g, tc, 300, 250); err != nil {
		t.Fatal(err)
	}

	// Drive the routed channel through the behavioral MCFIFO simulation.
	cfg, err := clockroute.FIFOFromResult(res, 300, 250, 2)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := clockroute.NewFIFOChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkts, _, err := ch.Simulate(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := pkts[0].ReceivedAt - pkts[0].LaunchedAt
	if first > res.Latency+1e-9 || first <= res.Latency-250-1e-9 {
		t.Errorf("simulated first-word latency %g outside (model-Tt, model] with model %g", first, res.Latency)
	}
}

func TestPublicAPIFastPathAndErrNoPath(t *testing.T) {
	g := clockroute.NewGrid(21, 21, 0.5)
	tc := clockroute.DefaultTech()
	prob, err := clockroute.NewProblem(g, tc, clockroute.Pt(0, 0), clockroute.Pt(20, 20))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := clockroute.FastPath(prob, clockroute.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fp.Registers != 0 || fp.Latency <= 0 {
		t.Errorf("fastpath result: %+v", fp)
	}

	walled := clockroute.NewGrid(21, 21, 0.5)
	walled.AddWiringBlockage(clockroute.R(10, 0, 11, 21))
	prob2, err := clockroute.NewProblem(walled, tc, clockroute.Pt(0, 10), clockroute.Pt(20, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clockroute.RBP(prob2, 500, clockroute.Options{}); !errors.Is(err, clockroute.ErrNoPath) {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
}

func TestPublicAPIPlannerFlow(t *testing.T) {
	fp, err := clockroute.SoC25mm(0.5)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := clockroute.NewPlanner(fp, clockroute.DefaultTech(), clockroute.Options{})
	if err != nil {
		t.Fatal(err)
	}
	net, err := clockroute.NetBetween(fp, "cpu-dsp", "cpu", clockroute.SideEast, "dsp", clockroute.SideWest, 400)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pl.PlanNets([]clockroute.NetSpec{net})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Failed()) != 0 {
		t.Fatalf("failures: %+v", plan.Failed())
	}
	var buf bytes.Buffer
	if err := plan.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cpu-dsp") {
		t.Error("report missing the net")
	}
}

func TestPublicAPIWavefrontRecorder(t *testing.T) {
	g := clockroute.NewGrid(31, 5, 0.5)
	tc := clockroute.DefaultTech()
	prob, err := clockroute.NewProblem(g, tc, clockroute.Pt(0, 2), clockroute.Pt(30, 2))
	if err != nil {
		t.Fatal(err)
	}
	rec := clockroute.NewWavefrontRecorder(g)
	res, err := clockroute.RBP(prob, 300, clockroute.Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Waves() != res.Registers+1 {
		t.Errorf("waves = %d, want %d", rec.Waves(), res.Registers+1)
	}
	var buf bytes.Buffer
	if err := rec.Render(&buf, res.Path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "S") || !strings.Contains(buf.String(), "T") {
		t.Error("render missing endpoints")
	}
}

func TestPublicAPIRandomFloorplan(t *testing.T) {
	fp, err := clockroute.RandomFloorplan(3, 40, 40, 0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fp.BuildGrid(); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPITelemetry exercises the observability re-exports end to
// end: a JSONL + ring + metrics fan-out observing a facade-level Route.
func TestPublicAPITelemetry(t *testing.T) {
	g := clockroute.NewGrid(41, 5, 0.5)
	tc := clockroute.DefaultTech()
	prob, err := clockroute.NewProblem(g, tc, clockroute.Pt(0, 2), clockroute.Pt(40, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jsonl := clockroute.NewJSONLSink(&buf)
	ring := clockroute.NewRingSink(64)
	metrics := clockroute.NewMetrics()
	res, err := clockroute.Route(context.Background(), prob, clockroute.Request{
		Kind: clockroute.KindRBP, PeriodPS: 400,
		Options: clockroute.Options{Telemetry: clockroute.MultiSink(jsonl, ring, metrics)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines < 3 || ring.Len() != lines {
		t.Errorf("JSONL wrote %d events, ring holds %d; want >=3 and equal", lines, ring.Len())
	}
	if !strings.Contains(buf.String(), `"kind":"search_end"`) {
		t.Error("trace missing the search_end span")
	}
	if got := metrics.Configs.Value(); got != int64(res.Stats.Configs) {
		t.Errorf("metrics saw %d configs, result has %d", got, res.Stats.Configs)
	}
	if clockroute.DefaultMetrics() == nil {
		t.Error("DefaultMetrics must return the process registry")
	}
	if clockroute.MultiSink() != nil {
		t.Error("empty MultiSink must collapse to nil (the free path)")
	}
}

func TestFIFOFromResultRejectsNonGALS(t *testing.T) {
	if _, err := clockroute.FIFOFromResult(nil, 300, 300, 2); err == nil {
		t.Error("nil result must fail")
	}
	g := clockroute.NewGrid(21, 3, 0.5)
	prob, err := clockroute.NewProblem(g, clockroute.DefaultTech(), clockroute.Pt(0, 1), clockroute.Pt(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	rbp, err := clockroute.RBP(prob, 500, clockroute.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clockroute.FIFOFromResult(rbp, 300, 300, 2); err == nil {
		t.Error("RBP result has no FIFO and must be rejected")
	}
}

func TestDefaultTechIsValid(t *testing.T) {
	tc := clockroute.DefaultTech()
	if err := tc.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(tc.MinBufferR()) || tc.MinBufferR() <= 0 {
		t.Error("MinBufferR broken")
	}
}
