package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"clockroute/api"
	"clockroute/internal/cliutil"
	"clockroute/internal/core"
	"clockroute/internal/floorplan"
	"clockroute/internal/planner"
	"clockroute/internal/planwire"
	"clockroute/internal/tech"
	"clockroute/internal/telemetry"
)

// socNets is the demo netlist of the built-in 25 mm SoC floorplan.
var socNets = []struct {
	name     string
	from, to planner.Endpoint
}{
	{"cpu-sram0", planner.Endpoint{Block: "cpu", Side: floorplan.SideSouth}, planner.Endpoint{Block: "sram0", Side: floorplan.SideNorth}},
	{"cpu-sram1", planner.Endpoint{Block: "cpu", Side: floorplan.SideEast}, planner.Endpoint{Block: "sram1", Side: floorplan.SideWest}},
	{"cpu-dsp", planner.Endpoint{Block: "cpu", Side: floorplan.SideEast}, planner.Endpoint{Block: "dsp", Side: floorplan.SideWest}},
	{"dsp-sram1", planner.Endpoint{Block: "dsp", Side: floorplan.SideNorth}, planner.Endpoint{Block: "sram1", Side: floorplan.SideSouth}},
	{"sram0-sram1", planner.Endpoint{Block: "sram0", Side: floorplan.SideEast}, planner.Endpoint{Block: "sram1", Side: floorplan.SideWest}},
}

// runPlan implements `routed plan`: interconnect planning of a batch of
// nets (RBP within a clock domain, GALS across domains) with the
// cycle-latency annotation report. The batch is the built-in 25 mm SoC
// and its demo netlist, a seeded random floorplan, or the nets of a
// /v1/plan request body read from a file:
//
//	routed plan                          # the built-in SoC
//	routed plan -pitch 0.125 -clock 350
//	routed plan -seed 7 -random 8        # a seeded random floorplan
//	routed plan -config plan.json        # a /v1/plan body
//	routed plan -config plan.json -exclusive
//	routed plan -workers 8 -timeout 2s -metrics-addr :9090 -trace run.jsonl -v
//
// A plan file's workers and timeout_ms fields act as on /v1/plan, with
// -workers and -timeout as their defaults; its cache block has no cache
// to act on. The CLI plans with tech.CongPan70nm, as the service does.
// With -exclusive the nets route one after another, each reserving its
// grid edges and element sites before the next. The report goes to
// stdout; the exit status is 1 when any net failed, 2 on invalid flags.
func runPlan(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("routed plan", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		config    = fs.String("config", "", "route the nets of this /v1/plan request body instead of a floorplan")
		exclusive = fs.Bool("exclusive", false, "route the nets in order, each reserving its resources (sequential congestion model)")
		pitch     = fs.Float64("pitch", 0.25, "planning grid pitch in mm")
		clock     = fs.Float64("clock", 500, "chip clock period in ps for blocks without a local clock")
		random    = fs.Int("random", 0, "use a random floorplan with this many blocks instead of the SoC demo")
		seed      = fs.Int64("seed", 1, "seed for -random")
		workers   = fs.Int("workers", 0, "concurrent net searches (0 = GOMAXPROCS)")
		timeout   = fs.Duration("timeout", 0, "abort routing after this long (0 = unlimited)")
		obs       cliutil.Observability
	)
	obs.Register(fs)
	fs.Parse(args)

	var v cliutil.Validator
	v.Positive("pitch", *pitch)
	v.Positive("clock", *clock)
	v.NonNegativeInt("random", *random)
	v.NonNegativeInt("workers", *workers)
	v.NonNegativeDuration("timeout", *timeout)
	if *config != "" {
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "pitch", "clock", "random", "seed":
				v.Check(f.Name, errors.New("does not apply with -config"))
			}
		})
	}
	obs.Check(&v)
	if err := v.Err(); err != nil {
		return invalid(fs, err)
	}

	var req *api.PlanRequest
	if *config != "" {
		var err error
		if req, err = readPlanRequest(*config); err != nil {
			fmt.Fprintln(stderr, "routed plan:", err)
			return 1
		}
		if req.Workers > 0 {
			*workers = req.Workers
		}
		if req.TimeoutMS > 0 {
			*timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
	}

	if err := obs.Start(stderr); err != nil {
		return obs.Fail("observability", err)
	}
	defer obs.Close()
	log := obs.Log
	srv, err := obs.Serve(telemetry.ServerOptions{})
	if err != nil {
		return obs.Fail("observability", err)
	}
	// Every consumer taps the same event stream, including a post-mortem
	// ring dumped when nets fail.
	ring := telemetry.NewRing(256)
	sinks := append(obs.Sinks(), ring)
	if srv != nil {
		defer srv.Close()
		sinks = append(sinks, telemetry.Default())
	}
	opts := core.Options{Telemetry: telemetry.Multi(sinks...)}
	ctx := context.Background()
	if *timeout > 0 {
		// The deadline reaches the searches of -exclusive, which take no
		// context, through the planner's options.
		opts.Deadline = time.Now().Add(*timeout)
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, opts.Deadline)
		defer cancel()
	}

	tc := tech.CongPan70nm()
	var pl *planner.Planner
	var specs []planner.NetSpec
	if req != nil {
		g, err := planwire.BuildGrid(&req.Grid)
		if err != nil {
			return obs.Fail("grid", err)
		}
		if pl, err = planner.NewFromGrid(g, tc, opts); err != nil {
			return obs.Fail("planner", err)
		}
		for i := range req.Nets {
			specs = append(specs, planwire.SpecFromNet(&req.Nets[i]))
		}
	} else {
		var fp *floorplan.Floorplan
		if *random > 0 {
			n := int(25.0 / *pitch)
			fp, err = floorplan.Random(*seed, n+1, n+1, *pitch, *random)
		} else {
			fp, err = floorplan.SoC25mm(*pitch)
		}
		if err != nil {
			return obs.Fail("floorplan", err)
		}
		if pl, err = planner.New(fp, tc, opts); err != nil {
			return obs.Fail("planner", err)
		}
		if specs, err = floorplanNets(fp, *random > 0, *clock, log.Warn); err != nil {
			return obs.Fail("net spec", err)
		}
	}
	if len(specs) == 0 {
		return obs.Fail("planning", errors.New("no routable nets"))
	}
	log.Debug("netlist built", "nets", len(specs))

	var plan *planner.Plan
	if *exclusive {
		plan, err = pl.PlanNetsExclusive(specs)
	} else {
		plan, err = pl.RunParallel(ctx, *workers, specs)
	}
	if err != nil {
		return obs.Fail("planning", err)
	}
	if err := plan.WriteReport(stdout); err != nil {
		return obs.Fail("report", err)
	}
	fmt.Fprintf(stdout, "\ntotal routed wire %.1f mm across %d nets (%d failed)\n",
		plan.TotalWireMM(), len(plan.Nets), plan.Stats.NetsFailed)
	fmt.Fprintf(stdout, "%d workers, %d configs total, peak queue %d, wall %v\n",
		plan.Stats.Workers, plan.Stats.TotalConfigs, plan.Stats.MaxQSize,
		plan.Stats.Elapsed.Round(time.Millisecond))

	status := finish(&obs)
	if failed := plan.Failed(); len(failed) > 0 {
		for _, n := range failed {
			log.Error("net failed", "net", n.Spec.Name, "err", n.Err)
		}
		log.Info("post-mortem: last trace events follow", "events", ring.Len())
		ring.Dump(stderr)
		status = 1
	}
	return status
}

// readPlanRequest decodes and validates a /v1/plan request body from the
// file at path, as the service would.
func readPlanRequest(path string) (*api.PlanRequest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	req, err := api.DecodePlanRequest(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return req, nil
}

// floorplanNets builds the netlist of a floorplan: the SoC demo nets, or
// for a random floorplan one net between each pair of consecutive blocks,
// east port to west port, skipping (and warning about) pairs that admit
// no net.
func floorplanNets(fp *floorplan.Floorplan, random bool, clock float64, warn func(string, ...any)) ([]planner.NetSpec, error) {
	var specs []planner.NetSpec
	if random {
		for i := 0; i+1 < len(fp.Blocks); i++ {
			from, to := fp.Blocks[i], fp.Blocks[i+1]
			s, err := planner.NetBetween(fp, fmt.Sprintf("%s-%s", from.Name, to.Name),
				planner.Endpoint{Block: from.Name, Side: floorplan.SideEast},
				planner.Endpoint{Block: to.Name, Side: floorplan.SideWest}, clock)
			if err != nil {
				warn("skipping net", "from", from.Name, "to", to.Name, "err", err)
				continue
			}
			specs = append(specs, s)
		}
		return specs, nil
	}
	for _, nd := range socNets {
		s, err := planner.NetBetween(fp, nd.name, nd.from, nd.to, clock)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}
