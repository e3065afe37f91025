// Benchmarks regenerating the paper's evaluation, one target per table and
// figure, plus ablations of the design choices called out in DESIGN.md.
//
// The benchmarks run at the 4×-reduced scale (0.5 mm pitch, 80-edge
// separation) so `go test -bench=.` completes in minutes; `go run
// ./cmd/routed tables -scale paper` regenerates the full 200×200
// configuration, recorded in EXPERIMENTS.md. Custom metrics report the
// paper's effort columns: configurations investigated and peak queue size.
package clockroute

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"clockroute/api"
	"clockroute/internal/bench"
	"clockroute/internal/core"
	"clockroute/internal/elmore"
	"clockroute/internal/floorplan"
	"clockroute/internal/geom"
	"clockroute/internal/latch"
	"clockroute/internal/mazeroute"
	"clockroute/internal/mcfifo"
	"clockroute/internal/planner"
	"clockroute/internal/tech"
	"clockroute/internal/telemetry"
	"clockroute/internal/wavefront"
)

func reducedProblem(b *testing.B) *core.Problem {
	b.Helper()
	prob, err := bench.ReducedScale().Build(tech.CongPan70nm())
	if err != nil {
		b.Fatal(err)
	}
	return prob
}

// BenchmarkTableI_FastPath is Table I's first row: the unclocked minimum
// delay baseline (T = ∞).
func BenchmarkTableI_FastPath(b *testing.B) {
	prob := reducedProblem(b)
	var configs, maxq int
	for i := 0; i < b.N; i++ {
		res, err := core.FastPath(prob, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		configs, maxq = res.Stats.Configs, res.Stats.MaxQSize
	}
	b.ReportMetric(float64(configs), "configs/op")
	b.ReportMetric(float64(maxq), "maxQ/op")
}

// BenchmarkTableI_RBP runs one sub-benchmark per Table I row: RBP at the
// fastest period achieving each register count.
func BenchmarkTableI_RBP(b *testing.B) {
	tc := tech.CongPan70nm()
	s := bench.ReducedScale()
	periods, targets, err := bench.FastestPeriods(tc, s, []int{1, 2, 3, 5, 7, 9, 39, 79})
	if err != nil {
		b.Fatal(err)
	}
	prob, err := s.Build(tc)
	if err != nil {
		b.Fatal(err)
	}
	for i, T := range periods {
		b.Run(fmt.Sprintf("regs=%d/T=%.0f", targets[i], T), func(b *testing.B) {
			var configs, maxq int
			for n := 0; n < b.N; n++ {
				res, err := core.RBP(prob, T, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				configs, maxq = res.Stats.Configs, res.Stats.MaxQSize
			}
			b.ReportMetric(float64(configs), "configs/op")
			b.ReportMetric(float64(maxq), "maxQ/op")
		})
	}
}

// BenchmarkTableII runs one sub-benchmark per grid pitch at a fixed period,
// showing the runtime-vs-grid-size trend of Table II.
func BenchmarkTableII_GridSize(b *testing.B) {
	tc := tech.CongPan70nm()
	for _, pitch := range []float64{1.0, 0.5, 0.25} {
		s := bench.PaperScale().WithPitch(pitch)
		prob, err := s.Build(tc)
		if err != nil {
			b.Fatal(err)
		}
		w, h := s.GridDims()
		b.Run(fmt.Sprintf("grid=%dx%d", w, h), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := core.RBP(prob, 343, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableIII_GALS runs one sub-benchmark per (Ts, Tt) pair of
// Table III.
func BenchmarkTableIII_GALS(b *testing.B) {
	prob := reducedProblem(b)
	for _, pair := range bench.TableIIIPairs() {
		b.Run(fmt.Sprintf("Ts=%.0f/Tt=%.0f", pair[0], pair[1]), func(b *testing.B) {
			var configs int
			for n := 0; n < b.N; n++ {
				res, err := core.GALS(prob, pair[0], pair[1], core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				configs = res.Stats.Configs
			}
			b.ReportMetric(float64(configs), "configs/op")
		})
	}
}

// BenchmarkFigure6_Wavefront regenerates the Fig. 6 wave-front expansion
// (RBP with the recorder attached, bounds off as published), measuring
// tracing overhead too.
func BenchmarkFigure6_Wavefront(b *testing.B) {
	prob := reducedProblem(b)
	for i := 0; i < b.N; i++ {
		rec := wavefront.NewRecorder(prob.Grid)
		if _, err := core.RBP(prob, 300, core.Options{Trace: rec, DisableBounds: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Pruning quantifies what (c,d) dominance pruning buys:
// the same small instance with pruning on and off. Both arms run the
// published algorithm (bounds off), so the A* layer's own pruning cannot
// mask the device under test.
func BenchmarkAblation_Pruning(b *testing.B) {
	s := bench.ReducedScale().WithPitch(2.0) // tiny reach keeps "off" finite
	prob, err := s.Build(tech.CongPan70nm())
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts core.Options
	}{
		{"on", core.Options{DisableBounds: true}},
		{"off", core.Options{DisableBounds: true, DisablePruning: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var configs int
			for n := 0; n < b.N; n++ {
				res, err := core.RBP(prob, 400, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				configs = res.Stats.Configs
			}
			b.ReportMetric(float64(configs), "configs/op")
		})
	}
}

// BenchmarkAblation_Lookahead measures the edge feasibility look-ahead
// (d' ≤ T − K(r) − min(R)·c') of RBP step 5, with bounds off in both arms:
// the delay-aware segment bound subsumes the look-ahead, so with bounds on
// the two arms would examine the same candidates.
func BenchmarkAblation_Lookahead(b *testing.B) {
	prob := reducedProblem(b)
	for _, mode := range []struct {
		name string
		opts core.Options
	}{
		{"on", core.Options{DisableBounds: true}},
		{"off", core.Options{DisableBounds: true, DisableLookahead: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var configs int
			for n := 0; n < b.N; n++ {
				res, err := core.RBP(prob, 300, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				configs = res.Stats.Configs
			}
			b.ReportMetric(float64(configs), "configs/op")
		})
	}
}

// BenchmarkAblation_SimultaneousVsRouteFirst compares RBP to the naive
// route-then-insert baseline on the same instance.
func BenchmarkAblation_SimultaneousVsRouteFirst(b *testing.B) {
	prob := reducedProblem(b)
	b.Run("rbp", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := core.RBP(prob, 300, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("route-then-insert", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := mazeroute.Route(prob, 300); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMCFIFO_Simulation measures the behavioral channel substrate:
// packets per second through the relay-station/MCFIFO pipeline.
func BenchmarkMCFIFO_Simulation(b *testing.B) {
	ch, err := mcfifo.New(mcfifo.Config{
		Ts: 200, Tt: 300, SenderStations: 4, ReceiverStations: 3, FIFODepth: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	const pkts = 1000
	for i := 0; i < b.N; i++ {
		if _, _, err := ch.Simulate(pkts, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pkts, "packets/op")
}

// BenchmarkExtension_LatchVsRegister compares the latch-based router (time
// borrowing) against RBP on the same instance — the latch-aware routing
// extension. The latch row is gated by make bench-check: its configs/op,
// and its answer through latency_ps and registers/op (the latch count).
func BenchmarkExtension_LatchVsRegister(b *testing.B) {
	prob := reducedProblem(b)
	b.Run("rbp", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := core.RBP(prob, 400, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("latch", func(b *testing.B) {
		var res *latch.Result
		for n := 0; n < b.N; n++ {
			var err error
			if res, err = latch.Route(prob, 400, 0, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Stats.Configs), "configs/op")
		b.ReportMetric(float64(res.Latches), "registers/op")
		b.ReportMetric(res.LatencyPS, "latency_ps")
	})
}

// BenchmarkExtension_MaxSlack measures the cost of the 3-D pruning and
// full-wave drain of the max-slack variant.
func BenchmarkExtension_MaxSlack(b *testing.B) {
	prob := reducedProblem(b)
	b.Run("first-found", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := core.RBP(prob, 400, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("max-slack", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := core.RBP(prob, 400, core.Options{MaximizeSlack: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtension_MultiSizeLibrary measures the cost of the 3-size
// buffer library against the paper's single size.
func BenchmarkExtension_MultiSizeLibrary(b *testing.B) {
	s := bench.ReducedScale()
	single, err := s.Build(tech.CongPan70nm())
	if err != nil {
		b.Fatal(err)
	}
	multi, err := s.Build(tech.CongPan70nmMultiSize())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("single", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := core.RBP(single, 400, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multi", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := core.RBP(multi, 400, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRBP is the headline single-search benchmark, run through the
// unified Route entry point at each telemetry setting. Run with -benchmem:
// the "off" row is the allocation budget the observability layer must not
// touch (the nil-sink fast path), and the ring/metrics rows price the
// enabled overhead quoted in DESIGN.md.
func BenchmarkRBP(b *testing.B) {
	prob := reducedProblem(b)
	ctx := context.Background()
	run := func(b *testing.B, opts core.Options) {
		b.ReportAllocs()
		var res *core.Result
		for n := 0; n < b.N; n++ {
			var err error
			res, err = core.Route(ctx, prob, core.Request{
				Kind: core.KindRBP, PeriodPS: 300, Options: opts,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Stats.Configs), "configs/op")
		b.ReportMetric(float64(res.Stats.ProbeConfigs), "probe_configs/op")
		// Routed-result fingerprint: make bench-check compares these against
		// the recorded baseline exactly — any drift fails the gate.
		b.ReportMetric(float64(res.Registers), "registers/op")
		b.ReportMetric(res.Latency, "latency_ps")
	}
	b.Run("telemetry=off", func(b *testing.B) {
		run(b, core.Options{})
	})
	// Pruning isolation: the identical search with admissible bounds off vs
	// on (the default), so BENCH_core.json records the configs/op and
	// time/op win attributable to the bounds alone. Results are proven
	// identical by the equivalence sweeps; only the effort may differ.
	b.Run("bounds=off", func(b *testing.B) {
		run(b, core.Options{DisableBounds: true})
	})
	b.Run("bounds=on", func(b *testing.B) {
		run(b, core.Options{})
	})
	b.Run("telemetry=ring", func(b *testing.B) {
		run(b, core.Options{Telemetry: telemetry.NewRing(4096)})
	})
	b.Run("telemetry=metrics", func(b *testing.B) {
		run(b, core.Options{Telemetry: telemetry.NewMetrics()})
	})
	// The full request-tracing path: every search and wave event lands in a
	// per-request span Recorder, as the service's traced middleware wires it.
	b.Run("telemetry=trace", func(b *testing.B) {
		b.ReportAllocs()
		var res *core.Result
		for n := 0; n < b.N; n++ {
			rec := telemetry.NewRecorder(telemetry.NewTraceContext(), "bench", "bench")
			var err error
			res, err = core.Route(ctx, prob, core.Request{
				Kind: core.KindRBP, PeriodPS: 300, Options: core.Options{Telemetry: rec},
			})
			if err != nil {
				b.Fatal(err)
			}
			rec.Finish(200, nil)
		}
		b.ReportMetric(float64(res.Stats.Configs), "configs/op")
		b.ReportMetric(float64(res.Stats.ProbeConfigs), "probe_configs/op")
		b.ReportMetric(float64(res.Registers), "registers/op")
		b.ReportMetric(res.Latency, "latency_ps")
	})
}

// BenchmarkFastPath is the unclocked single-search counterpart of
// BenchmarkRBP, tracked in BENCH_core.json alongside it: the minimum-delay
// baseline exercises the same arena/scratch path with a single wave, so a
// memory-management regression shows up here even if the wave machinery
// masks it in RBP. latency_ps fingerprints its answer.
func BenchmarkFastPath(b *testing.B) {
	prob := reducedProblem(b)
	b.ReportAllocs()
	var res *core.Result
	for n := 0; n < b.N; n++ {
		var err error
		res, err = core.FastPath(prob, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Configs), "configs/op")
	b.ReportMetric(float64(res.Stats.ProbeConfigs), "probe_configs/op")
	b.ReportMetric(res.Latency, "latency_ps")
}

// BenchmarkGALS is the two-domain single-search row of BENCH_core.json:
// the same die at Ts = 300 ps, Tt = 250 ps (a Table III pair), so the GALS
// kernel and its incumbent probe are gated directly rather than only
// through the planner's mix, with the routed answer fingerprinted like
// BenchmarkRBP's.
func BenchmarkGALS(b *testing.B) {
	prob := reducedProblem(b)
	b.ReportAllocs()
	var res *core.Result
	for n := 0; n < b.N; n++ {
		var err error
		res, err = core.GALS(prob, 300, 250, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Configs), "configs/op")
	b.ReportMetric(float64(res.Stats.ProbeConfigs), "probe_configs/op")
	b.ReportMetric(float64(res.Registers), "registers/op")
	b.ReportMetric(res.Latency, "latency_ps")
}

// BenchmarkOneRegister is the gated pair of single searches whose answer
// routes one register, as most of perfbench's route-cold searches do: RBP
// at T = 2000 ps and GALS at Ts = 1500 ps, Tt = 1200 ps on BenchmarkRBP's
// die. BenchmarkRBP and BenchmarkGALS route nine registers, and the bound
// on the probe's arrival key (keyBound in internal/core) barely moves
// them. Here the source segment is a large share of the path, so that
// bound does most of the pruning, and make bench-check sees it switched
// off.
func BenchmarkOneRegister(b *testing.B) {
	prob := reducedProblem(b)
	run := func(b *testing.B, search func() (*core.Result, error)) {
		b.ReportAllocs()
		var res *core.Result
		for n := 0; n < b.N; n++ {
			var err error
			if res, err = search(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Stats.Configs), "configs/op")
		b.ReportMetric(float64(res.Stats.ProbeConfigs), "probe_configs/op")
		b.ReportMetric(float64(res.Registers), "registers/op")
		b.ReportMetric(res.Latency, "latency_ps")
	}
	b.Run("rbp/T=2000", func(b *testing.B) {
		run(b, func() (*core.Result, error) { return core.RBP(prob, 2000, core.Options{}) })
	})
	b.Run("gals/Ts=1500/Tt=1200", func(b *testing.B) {
		run(b, func() (*core.Result, error) { return core.GALS(prob, 1500, 1200, core.Options{}) })
	})
}

// shortSearches is BenchmarkShortSearches' batch size: two turns of its
// 10-kind cycle.
const shortSearches = 20

// shortKinds fixes the 5:3:2 RBP:GALS:FastPath mix of perfbench's
// route-cold workload, and shortPeriods its block clocks (ps).
var (
	shortKinds = [10]core.Kind{
		core.KindRBP, core.KindGALS, core.KindRBP, core.KindFastPath, core.KindRBP,
		core.KindGALS, core.KindRBP, core.KindGALS, core.KindRBP, core.KindFastPath,
	}
	shortPeriods = []float64{400, 500, 650, 800}
)

// shortSearchBatch draws BenchmarkShortSearches' fixed batch: 32–64-node
// dies at 0.25 mm with floorplan.Random blocks, endpoints 30–65% of the
// half-perimeter apart on register-insertable nodes the source reaches.
func shortSearchBatch(b *testing.B) ([]*core.Problem, []core.Request) {
	b.Helper()
	tc := tech.CongPan70nm()
	rng := rand.New(rand.NewSource(22))
	probs := make([]*core.Problem, 0, shortSearches)
	reqs := make([]core.Request, 0, shortSearches)
	for i := 0; len(probs) < shortSearches; i++ {
		if i > 100*shortSearches {
			b.Fatal("short-search batch: too many rejected draws")
		}
		w, h := 32+rng.Intn(33), 32+rng.Intn(33)
		fp, err := floorplan.Random(rng.Int63(), w, h, 0.25, 10)
		if err != nil {
			b.Fatal(err)
		}
		g, err := fp.BuildGrid()
		if err != nil {
			b.Fatal(err)
		}
		src := geom.Pt(rng.Intn(w), rng.Intn(h))
		d := int(float64(w+h) * (0.3 + 0.35*rng.Float64()))
		dx := rng.Intn(2*d+1) - d
		dy := d - max(dx, -dx)
		if rng.Intn(2) == 0 {
			dy = -dy
		}
		dst := src.Add(geom.Pt(dx, dy))
		if !g.InBounds(dst) || !g.RegisterInsertable(g.ID(src)) || !g.RegisterInsertable(g.ID(dst)) ||
			!g.Reachable(g.ID(src), g.ID(dst)) {
			continue
		}
		m, err := elmore.NewModel(tc, g.PitchMM())
		if err != nil {
			b.Fatal(err)
		}
		p, err := core.NewProblem(g, m, g.ID(src), g.ID(dst))
		if err != nil {
			b.Fatal(err)
		}
		req := core.Request{Kind: shortKinds[len(probs)%len(shortKinds)]}
		pi := rng.Intn(len(shortPeriods))
		switch req.Kind {
		case core.KindRBP:
			req.PeriodPS = shortPeriods[pi]
		case core.KindGALS:
			req.SrcPeriodPS = shortPeriods[pi]
			req.DstPeriodPS = shortPeriods[(pi+1+rng.Intn(3))%len(shortPeriods)]
		}
		probs = append(probs, p)
		reqs = append(reqs, req)
	}
	return probs, reqs
}

// BenchmarkShortSearches routes a fixed, seeded batch shaped like
// perfbench's route-cold problems, each through its own Model as the
// service builds one per request. These searches pop a few thousand
// configs each, so per-search set-up (the BFS, the probe, the bound
// tables) is a large share of their time, unlike the single large
// searches of the rows above. The metrics sum over the batch.
func BenchmarkShortSearches(b *testing.B) { benchShortSearches(b, false) }

// BenchmarkShortSearchesDroppedPool routes BenchmarkShortSearches' batch
// after two forced GCs before each pass, timer stopped. The first GC moves
// the pooled Scratch to the pool's victim cache and the second drops it,
// which is what the collector does to the service's pool between
// requests, so each pass prices a fresh Scratch's warm-up on top of the
// same searches.
func BenchmarkShortSearchesDroppedPool(b *testing.B) { benchShortSearches(b, true) }

func benchShortSearches(b *testing.B, dropPool bool) {
	probs, reqs := shortSearchBatch(b)
	ctx := context.Background()
	b.ReportAllocs()
	var configs, probeConfigs, regs int
	var lat float64
	for n := 0; n < b.N; n++ {
		if dropPool {
			b.StopTimer()
			runtime.GC()
			runtime.GC()
			b.StartTimer()
		}
		configs, probeConfigs, regs, lat = 0, 0, 0, 0
		for i, p := range probs {
			res, err := core.Route(ctx, p, reqs[i])
			if err != nil {
				b.Fatalf("problem %d (%v): %v", i, reqs[i].Kind, err)
			}
			configs += res.Stats.Configs
			probeConfigs += res.Stats.ProbeConfigs
			regs += res.Registers
			lat += res.Latency
		}
	}
	b.ReportMetric(float64(configs), "configs/op")
	b.ReportMetric(float64(probeConfigs), "probe_configs/op")
	b.ReportMetric(float64(regs), "registers/op")
	b.ReportMetric(lat, "latency_ps")
}

// BenchmarkPlanner_ParallelVsSerial routes the same 16-net SoC workload
// with 1, 2, 4, and 8 workers over one shared grid and Elmore model. On a
// multi-core host the 4-worker row shows the batch-routing speedup; on any
// host the rows confirm the parallel engine pays no correctness or setup
// penalty over the serial loop.
//
// Besides the configs/op effort count, each row fingerprints the routed
// answer — total registers and summed latency across the batch — so
// cmd/benchcheck's gate catches a batch-path result drift (any fingerprint
// delta fails) separately from an effort regression (>5% configs/op or
// probe_configs/op, the incumbent probes' share of the effort).
func BenchmarkPlanner_ParallelVsSerial(b *testing.B) {
	pl, specs, err := bench.SoCNetWorkload(0.5, 16)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var configs, probeConfigs, regs int
			var lat float64
			for n := 0; n < b.N; n++ {
				plan, err := pl.RunParallel(context.Background(), workers, specs)
				if err != nil {
					b.Fatal(err)
				}
				configs, probeConfigs = plan.Stats.TotalConfigs, plan.Stats.TotalProbeConfigs
				regs, lat = 0, 0
				for i := range plan.Nets {
					if plan.Nets[i].Err != nil {
						b.Fatal(plan.Nets[i].Err)
					}
					regs += plan.Nets[i].Registers
					lat += plan.Nets[i].LatencyPS
				}
			}
			b.ReportMetric(float64(configs), "configs/op")
			b.ReportMetric(float64(probeConfigs), "probe_configs/op")
			b.ReportMetric(float64(regs), "registers/op")
			b.ReportMetric(lat, "latency_ps")
		})
	}
}

// widthLadderNets is BenchmarkPlanner_WidthLadder's net count.
const widthLadderNets = 4

// BenchmarkPlanner_WidthLadder routes a few short nets on one seeded
// 48×48 die at 0.25 mm (floorplan.Random blocks), each across the longest
// wire-width ladder the API admits (api.MaxWireWidths widths from 1×), on
// one worker. Every width is its own Model, and the planner visits them in
// turn, net after net, so the row prices whatever per-model state the
// searches keep under a plan's cyclic model traffic. Its configs/op and
// probe_configs/op count every width's search, as the planner sums each
// net's effort over its ladder; registers/op and latency_ps are the
// winning widths' answers.
func BenchmarkPlanner_WidthLadder(b *testing.B) {
	fp, err := floorplan.Random(22, 48, 48, 0.25, 10)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := planner.New(fp, tech.CongPan70nm(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	g := pl.Grid()
	ladder := make([]float64, api.MaxWireWidths)
	for i := range ladder {
		ladder[i] = 1 + float64(i)/4
	}
	rng := rand.New(rand.NewSource(22))
	var specs []planner.NetSpec
	for len(specs) < widthLadderNets {
		src := geom.Pt(rng.Intn(48), rng.Intn(48))
		d := int(96 * (0.3 + 0.35*rng.Float64()))
		dx := rng.Intn(2*d+1) - d
		dy := d - max(dx, -dx)
		if rng.Intn(2) == 0 {
			dy = -dy
		}
		dst := src.Add(geom.Pt(dx, dy))
		if !g.InBounds(dst) || !g.RegisterInsertable(g.ID(src)) || !g.RegisterInsertable(g.ID(dst)) ||
			!g.Reachable(g.ID(src), g.ID(dst)) {
			continue
		}
		pi := rng.Intn(len(shortPeriods))
		pj := pi
		if len(specs)%2 == 1 {
			pj = (pi + 1) % len(shortPeriods) // every other net is GALS
		}
		specs = append(specs, planner.NetSpec{
			Name: fmt.Sprintf("net%d", len(specs)), Src: src, Dst: dst,
			SrcPeriodPS: shortPeriods[pi], DstPeriodPS: shortPeriods[pj], WireWidths: ladder,
		})
	}
	b.ReportAllocs()
	var configs, probeConfigs, regs int
	var lat float64
	for n := 0; n < b.N; n++ {
		plan, err := pl.RunParallel(context.Background(), 1, specs)
		if err != nil {
			b.Fatal(err)
		}
		configs, probeConfigs = plan.Stats.TotalConfigs, plan.Stats.TotalProbeConfigs
		regs, lat = 0, 0
		for i := range plan.Nets {
			if plan.Nets[i].Err != nil {
				b.Fatal(plan.Nets[i].Err)
			}
			regs += plan.Nets[i].Registers
			lat += plan.Nets[i].LatencyPS
		}
	}
	b.ReportMetric(float64(configs), "configs/op")
	b.ReportMetric(float64(probeConfigs), "probe_configs/op")
	b.ReportMetric(float64(regs), "registers/op")
	b.ReportMetric(lat, "latency_ps")
}
