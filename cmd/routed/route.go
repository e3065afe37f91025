package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"time"

	"clockroute/api"
	"clockroute/internal/cliutil"
	"clockroute/internal/core"
	"clockroute/internal/latch"
	"clockroute/internal/mcfifo"
	"clockroute/internal/planwire"
	"clockroute/internal/route"
	"clockroute/internal/tech"
	"clockroute/internal/telemetry"
	"clockroute/internal/wavefront"
)

// kindFlags names the route flags that belong to some kinds only; every
// other flag applies to all four.
var kindFlags = map[string][]string{
	"period":    {"rbp", "latch"},
	"variant":   {"rbp"},
	"render":    {"rbp"},
	"png":       {"rbp"},
	"cell":      {"rbp"},
	"ts":        {"gals"},
	"tt":        {"gals"},
	"simulate":  {"gals"},
	"fifodepth": {"gals"},
	"maxcycles": {"latch"},
}

// runRoute implements `routed route`: one net routed by one algorithm,
// the /v1/route body spelled as flags. The problem is built by the code
// the service uses (planwire.BuildRoute); the latch kind, which the
// service does not offer, routes the rbp problem with transparent latches
// and compares the two.
//
//	routed route -kind rbp -period 400 -obstacle 30,30,60,60 -variant array
//	routed route -kind rbp -grid 61x25 -pitch 0.5 -src 2,12 -dst 58,12 \
//	    -period 300 -render -png fig6.png       # the paper's Fig. 6
//	routed route -kind gals -ts 300 -tt 250 -simulate 100
//	routed route -kind latch -grid 41x5 -pitch 0.5 -src 0,2 -dst 40,2 \
//	    -period 760 -regblock 1,0,10,5 -regblock 11,0,30,5
//
// Every flag is checked before any file is created or any search runs:
// the failures print together under "invalid flags:" with exit status 2.
// A failed search exits 1.
func runRoute(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("routed route", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		kind                             = fs.String("kind", "rbp", "algorithm: fastpath | rbp | gals | latch")
		gridSize                         = fs.String("grid", "101x101", "grid size WxH in nodes")
		pitch                            = fs.Float64("pitch", 0.25, "grid pitch in mm")
		srcFlag                          = fs.String("src", "5,5", "source node x,y")
		dstFlag                          = fs.String("dst", "95,95", "sink node x,y")
		timeout                          = fs.Duration("timeout", 0, "abort the search after this long (0 = unlimited)")
		period                           = fs.Float64("period", 400, "rbp, latch: clock period in ps")
		variant                          = fs.String("variant", "two-queue", "rbp: implementation, two-queue | array")
		render                           = fs.Bool("render", false, "rbp: print the wave-front map (Fig. 6) and the visits per wave")
		pngPath                          = fs.String("png", "", "rbp: also write the wave-front map as a PNG to this file")
		cell                             = fs.Int("cell", 6, "rbp: pixels per grid node for -png")
		ts                               = fs.Float64("ts", 300, "gals: source domain clock period in ps")
		tt                               = fs.Float64("tt", 300, "gals: sink domain clock period in ps")
		simulate                         = fs.Int("simulate", 0, "gals: push N packets through the behavioral MCFIFO channel")
		depth                            = fs.Int("fifodepth", 2, "gals: MCFIFO capacity in words for -simulate")
		maxCycles                        = fs.Int("maxcycles", 0, "latch: latency search bound in cycles (0 = default)")
		obstacles, wireblocks, regblocks cliutil.RectList
		obs                              cliutil.Observability
	)
	fs.Var(&obstacles, "obstacle", "physical obstacle rect x0,y0,x1,y1 (repeatable)")
	fs.Var(&wireblocks, "wireblock", "wiring blockage rect (repeatable)")
	fs.Var(&regblocks, "regblock", "register/latch blockage rect (repeatable)")
	obs.Register(fs)
	fs.Parse(args)

	var v cliutil.Validator
	v.OneOf("kind", *kind, "fastpath", "rbp", "gals", "latch")
	fs.Visit(func(f *flag.Flag) {
		if kinds, ok := kindFlags[f.Name]; ok && !slices.Contains(kinds, *kind) {
			v.Check(f.Name, fmt.Errorf("does not apply to -kind %s", *kind))
		}
	})
	w, h, gerr := cliutil.ParseGridSize(*gridSize)
	src, serr := cliutil.ParsePoint(*srcFlag)
	dst, derr := cliutil.ParsePoint(*dstFlag)
	v.Check("grid", gerr)
	v.Check("src", serr)
	v.Check("dst", derr)
	if gerr == nil {
		v.GridSize("grid", w, h)
		if serr == nil {
			v.InBounds("src", src, w, h)
		}
		if derr == nil {
			v.InBounds("dst", dst, w, h)
		}
	}
	if serr == nil && derr == nil {
		v.Distinct("src", "dst", src, dst)
	}
	// Flags of other kinds keep their (valid) defaults, so every value can
	// be checked whatever the kind.
	v.Positive("pitch", *pitch)
	v.NonNegativeDuration("timeout", *timeout)
	v.Positive("period", *period)
	v.OneOf("variant", *variant, "two-queue", "array")
	v.Positive("cell", float64(*cell))
	v.Positive("ts", *ts)
	v.Positive("tt", *tt)
	v.NonNegativeInt("simulate", *simulate)
	v.Positive("fifodepth", float64(*depth))
	v.NonNegativeInt("maxcycles", *maxCycles)
	obs.Check(&v)
	if err := v.Err(); err != nil {
		return invalid(fs, err)
	}

	req := api.RouteRequest{
		Grid: api.GridSpec{
			W: w, H: h, PitchMM: *pitch,
			Obstacles:         wireRects(obstacles),
			RegisterBlockages: wireRects(regblocks),
			WiringBlockages:   wireRects(wireblocks),
		},
		Kind: *kind,
		Src:  api.Point{X: src.X, Y: src.Y},
		Dst:  api.Point{X: dst.X, Y: dst.Y},
	}
	switch *kind {
	case "rbp", "latch":
		req.Kind, req.PeriodPS, req.ArrayQueues = "rbp", *period, *variant == "array"
	case "gals":
		req.SrcPeriodPS, req.DstPeriodPS = *ts, *tt
	}
	if err := req.Validate(); err != nil {
		return invalid(fs, fmt.Errorf("invalid flags:\n  %v", err))
	}

	if err := obs.Start(stderr); err != nil {
		return obs.Fail("observability", err)
	}
	defer obs.Close()
	srv, err := obs.Serve(telemetry.ServerOptions{})
	if err != nil {
		return obs.Fail("observability", err)
	}
	sinks := obs.Sinks()
	if srv != nil {
		defer srv.Close()
		sinks = append(sinks, telemetry.Default())
	}

	tc := tech.CongPan70nm()
	prob, creq, err := planwire.BuildRoute(&req, tc)
	if err != nil {
		return obs.Fail("problem", err)
	}
	creq.Options.Telemetry = telemetry.Multi(sinks...)
	if *timeout > 0 {
		creq.Options.Deadline = time.Now().Add(*timeout)
	}
	var rec *wavefront.Recorder
	if *render || *pngPath != "" {
		// The map shows the published expansion: with the A* bounds on,
		// the rings shrink to the routed row. The route is the same.
		rec = wavefront.NewRecorder(prob.Grid)
		creq.Options.Trace, creq.Options.DisableBounds = rec, true
	}
	g, m := prob.Grid, prob.Model

	if *kind == "latch" {
		res, err := latch.Route(prob, *period, *maxCycles, creq.Options)
		if err != nil {
			return obs.Fail("routing", err)
		}
		if err := latch.Verify(res.Path, g, m, *period, res.Cycles); err != nil {
			return obs.Fail("verification failed", err)
		}
		fmt.Fprintf(stdout, "latch route: latency %.0f ps (%d cycles), %d latches, %d buffers\n",
			res.LatencyPS, res.Cycles, res.Latches, res.Buffers)
		fmt.Fprintf(stdout, "labeling     %v\n", res.Path)
		rbp, err := core.Route(context.Background(), prob, creq)
		if err != nil {
			fmt.Fprintf(stdout, "RBP (registers): infeasible at this period: %v\n", err)
			return finish(&obs)
		}
		fmt.Fprintf(stdout, "RBP (registers): latency %.0f ps (%d cycles), %d registers, %d buffers\n",
			rbp.Latency, rbp.Registers+1, rbp.Registers, rbp.Buffers)
		if res.LatencyPS < rbp.Latency {
			fmt.Fprintf(stdout, "time borrowing saves %.0f ps\n", rbp.Latency-res.LatencyPS)
		}
		return finish(&obs)
	}

	res, err := core.Route(context.Background(), prob, creq)
	if err != nil {
		return obs.Fail("routing", err)
	}
	switch *kind {
	case "fastpath":
		_, err = route.VerifySingleClock(res.Path, g, m, math.Inf(1))
	case "rbp":
		_, err = route.VerifySingleClock(res.Path, g, m, *period)
	case "gals":
		_, err = route.VerifyMultiClock(res.Path, g, m, *ts, *tt)
	}
	if err != nil {
		return obs.Fail("verification failed", err)
	}

	switch *kind {
	case "fastpath":
		fmt.Fprintf(stdout, "latency      %.0f ps\n", res.Latency)
		fmt.Fprintf(stdout, "buffers      %d\n", res.Buffers)
	case "rbp":
		fmt.Fprintf(stdout, "period       %.0f ps\n", *period)
		fmt.Fprintf(stdout, "latency      %.0f ps (%d cycles)\n", res.Latency, res.Registers+1)
		fmt.Fprintf(stdout, "registers    %d\n", res.Registers)
		fmt.Fprintf(stdout, "buffers      %d\n", res.Buffers)
	case "gals":
		fmt.Fprintf(stdout, "domains      Ts=%.0f ps (source), Tt=%.0f ps (sink)\n", *ts, *tt)
		fmt.Fprintf(stdout, "latency      %.0f ps = Ts*%d + Tt*%d\n", res.Latency, res.RegS+1, res.RegT+1)
		fmt.Fprintf(stdout, "relay stns   %d source-side, %d sink-side\n", res.RegS, res.RegT)
		fmt.Fprintf(stdout, "buffers      %d\n", res.Buffers)
		fmt.Fprintf(stdout, "MCFIFO at    %v\n", g.At(res.Path.Nodes[res.Path.FIFOIndex()]))
	}
	fmt.Fprintf(stdout, "path length  %d edges (%.2f mm)\n", res.Path.Len(), float64(res.Path.Len())**pitch)
	if sep, ok := res.Path.RegisterSeparation(); ok && *kind == "rbp" {
		fmt.Fprintf(stdout, "register sep %d..%d edges\n", sep.Min, sep.Max)
	}
	fmt.Fprintf(stdout, "configs      %d, max queue %d, %v\n", res.Stats.Configs, res.Stats.MaxQSize, res.Stats.Elapsed)
	fmt.Fprintf(stdout, "labeling     %v\n", res.Path)

	if *render {
		fmt.Fprintln(stdout)
		if err := rec.Render(stdout, res.Path); err != nil {
			return obs.Fail("render", err)
		}
		fmt.Fprintln(stdout)
		if err := rec.Summary(stdout); err != nil {
			return obs.Fail("render", err)
		}
	}
	if *pngPath != "" {
		if err := writePNG(*pngPath, rec, res.Path, *cell); err != nil {
			return obs.Fail("png", err)
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", *pngPath)
	}
	if *simulate > 0 {
		ch, err := mcfifo.New(mcfifo.Config{
			Ts: *ts, Tt: *tt,
			SenderStations: res.RegS, ReceiverStations: res.RegT,
			FIFODepth: *depth,
		})
		if err != nil {
			return obs.Fail("simulation", err)
		}
		pkts, st, err := ch.Simulate(*simulate, nil)
		if err != nil {
			return obs.Fail("simulation", err)
		}
		first := pkts[0].ReceivedAt - pkts[0].LaunchedAt
		fmt.Fprintf(stdout, "\nbehavioral simulation (%d packets):\n", *simulate)
		fmt.Fprintf(stdout, "  first-word latency %.0f ps (model %.0f ps)\n", first, res.Latency)
		fmt.Fprintf(stdout, "  delivered %d in order, max FIFO occupancy %d\n", st.Delivered, st.MaxFIFOLevel)
	}
	return finish(&obs)
}

// wireRects converts parsed rectangle flags to their wire form.
func wireRects(rs cliutil.RectList) []api.Rect {
	out := make([]api.Rect, len(rs))
	for i, r := range rs {
		out[i] = api.Rect{X0: r.MinX, Y0: r.MinY, X1: r.MaxX, Y1: r.MaxY}
	}
	return out
}

// writePNG renders the recorded expansion to a new file at path.
func writePNG(path string, rec *wavefront.Recorder, p *route.Path, cell int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.RenderPNG(f, p, cell); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
