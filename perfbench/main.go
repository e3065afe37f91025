// Command perfbench is the repository's end-to-end benchmark. It boots the
// routing service in-process on loopback HTTP (server.New(...).Handler(),
// with an in-process coordinator cluster for the sharded workload), drives
// it through the client package with a seeded closed-loop workload, checks
// every answer, and prints one JSON result line.
//
//	perfbench --workload route-cold --seed 1 --seconds 12 --trace 0
//	perfbench steady --runs 10 [--workloads a,b] [--sets 2]
//	perfbench golden
//
// Run it from the repository root (bash perfbench/run.sh builds it first).
// --trace 0 measures and prints the end-to-end metrics; --trace 1 is the
// separate traced run that prints the per-layer metrics. The steady mode
// runs workloads repeatedly and reports each metric's median, quartiles and
// spread against its bound in BENCHMARK.json; golden regenerates the
// default seed's optimal-latency list from the library directly, for runs
// of BENCHMARK.json's run_seconds.
//
// Every run sends the same ops in the same order: --seconds fixes an op
// count (at least 100, so the 90th percentile has ten samples beyond it),
// never a duration. Clients run closed loop. Set-up (servers, coordinator,
// connections, the workload's warming) is repeated several times per run
// and setup_s is the median. Input generation and answer checks are outside
// every clock, except route-hot's: it compares each answer's digest with the
// verified catalog answer inside the phase, because keeping its tens of
// thousands of responses for later would grow the heap the phase runs with.
// The end-to-end metrics, over the measured phase, with every timing scaled
// to the reference host speed (see calib.go):
//
//	setup_s             median set-up time
//	latency_p50_ms      client-observed median op time (an op is one
//	latency_p90_ms      /v1/route call or one whole plan), and its p90
//	problems_per_s      problems answered per wall second (a plan of N
//	                    nets answers N, cached or not)
//	cpu_ms_per_problem  process user+sys CPU per problem answered
//	heap_live_mb        live heap after forced collection at the end
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		case "golden":
			os.Exit(goldenMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "route-cold | route-hot | plan-eco | plan-sharded")
	seed := fs.Int64("seed", defaultSeed, "input seed; the golden latencies cover the default")
	seconds := fs.Int("seconds", 0, "sizes the fixed op count to about this many seconds of measured phase (BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spansDir := fs.String("spans-dir", ".bench_build", "where the traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (route-cold|route-hot|plan-eco|plan-sharded), --seconds >= 1, --trace 0|1")
		return 2
	}
	var golden map[string]float64
	if *seed == defaultSeed {
		if golden, err = loadGolden(goldenFile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	chk := newChecker(golden)
	ops := opCount(spec, *seconds)
	w, err := spec.make(*seed, ops, chk)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: generate inputs:", err)
		return 1
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d ops=%d clients=%d GOMAXPROCS=%d go=%s\n",
		spec.name, *seed, *seconds, w.ops(), w.clients(), runtime.GOMAXPROCS(0), runtime.Version())

	ctx := context.Background()
	var res *result
	if *trace == 0 {
		res, err = runPlain(ctx, spec, w, *seed)
	} else {
		res, err = runTraced(ctx, spec, w, chk, *seed, *spansDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(chk.gateSummary(*seed))
	for _, f := range chk.failures {
		fmt.Println("gate failure:", f)
	}
	res.Correct = res.Failed == 0 && len(chk.failures) == 0
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// timing is a raw duration with the host-speed scale of the calibrations
// around it.
type timing struct {
	raw, scale float64
}

// setUp boots and warms the system `times` times, closing all but the
// last, and returns the last cluster with every set-up duration in
// seconds. The host speed is calibrated before the first set-up and after
// each; answer checks run after each set-up clock stops.
func setUp(ctx context.Context, w workload, seed int64, times int, tr *tracer, cal *calibrator) (*cluster, []timing, error) {
	var durs []timing
	cal.point()
	for k := 0; k < times; k++ {
		start := time.Now()
		c, err := newCluster(w.backends(), w.clients(), seed, tr)
		if err != nil {
			return nil, nil, err
		}
		checks, err := w.warm(ctx, c)
		d := time.Since(start).Seconds()
		cal.point()
		scale, _ := cal.scaleLast()
		durs = append(durs, timing{d, scale})
		for _, check := range checks {
			if err == nil {
				err = check()
			}
		}
		if err != nil {
			c.close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if k == times-1 {
			return c, durs, nil
		}
		c.close()
	}
	return nil, nil, errors.New("perfbench: no set-up")
}

// counters are the registry readings a phase is bracketed by.
type counters struct {
	attempts                                 int64
	hits, misses, evictions                  int64
	perBackendLookups                        []int64
	requestErrors, shed, failovers, degraded int64
}

func readCounters(c *cluster) counters {
	out := counters{
		attempts:      c.rt.n.Load(),
		requestErrors: c.frontM.RequestErrors.Value(),
		shed:          c.frontM.Shed.Value(),
		failovers:     c.frontM.CoordFailovers.Value(),
		degraded:      c.frontM.CoordDegradedLocal.Value(),
	}
	_, ms := c.serving()
	for _, m := range ms {
		h, mi := m.CacheHits.Value(), m.CacheMisses.Value()
		out.hits += h
		out.misses += mi
		out.evictions += m.CacheEvictions.Value()
		out.perBackendLookups = append(out.perBackendLookups, h+mi)
	}
	return out
}

// phaseBlocks is how many blocks the measured phase is cut into; the host
// speed is calibrated before the first, between each two and after the
// last, so the scale of each block reflects the host while it ran.
const phaseBlocks = 10

// block is one stretch of the measured phase: ops [lo, hi), with the
// host-speed scales of its wall-clock and CPU times.
type block struct {
	lo, hi              int
	before, after       hostSample
	wallScale, cpuScale float64
}

// phase is one measured phase: the same ops in the same order every run.
// Its wall, CPU and steal times cover the blocks, not the calibrations.
type phase struct {
	results         []opResult
	problems        int
	blocks          []block
	cBefore, cAfter counters
	heapMB          float64
	cacheBytes      int64
}

func measure(ctx context.Context, w workload, c *cluster, cal *calibrator) *phase {
	p := &phase{results: make([]opResult, w.ops())}
	for i := range p.results {
		p.problems += w.problems(i)
	}
	runtime.GC()
	p.cBefore = readCounters(c)
	cal.point()
	for b := 0; b < phaseBlocks; b++ {
		bl := block{lo: b * w.ops() / phaseBlocks, hi: (b + 1) * w.ops() / phaseBlocks}
		bl.before = sampleHost()
		var wg sync.WaitGroup
		for k := 0; k < w.clients(); k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for i := bl.lo + k; i < bl.hi; i += w.clients() {
					p.results[i] = w.op(ctx, c, i)
				}
			}(k)
		}
		wg.Wait()
		bl.after = sampleHost()
		cal.point()
		bl.wallScale, bl.cpuScale = cal.scaleLast()
		p.blocks = append(p.blocks, bl)
	}
	p.cAfter = readCounters(c)
	for i := range p.results {
		r := &p.results[i]
		if r.err == nil && r.check != nil {
			r.err = r.check()
		}
		r.check = nil // drops the response it held
	}
	// Two collections: the second drops what sync.Pools kept through the
	// first, so only retained state is counted.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	srvs, _ := c.serving()
	for _, s := range srvs {
		p.cacheBytes += s.Cache().Bytes()
	}
	return p
}

// sum adds f over the blocks.
func (p *phase) sum(f func(b *block) float64) float64 {
	t := 0.0
	for i := range p.blocks {
		t += f(&p.blocks[i])
	}
	return t
}

func (p *phase) wallS(scaled bool) float64 {
	return p.sum(func(b *block) float64 { return pick(scaled, b.wallScale) * b.after.wall.Sub(b.before.wall).Seconds() })
}

func (p *phase) cpuS(scaled bool) float64 {
	return p.sum(func(b *block) float64 { return pick(scaled, b.cpuScale) * (b.after.cpu - b.before.cpu).Seconds() })
}

func (p *phase) steal() float64 {
	return p.sum(func(b *block) float64 { return (b.after.steal - b.before.steal).Seconds() })
}

// pick is scale when scaled is set, else 1.
func pick(scaled bool, scale float64) float64 {
	if scaled {
		return scale
	}
	return 1
}

func (p *phase) failed() int {
	n := 0
	for _, r := range p.results {
		if r.err != nil {
			n++
		}
	}
	return n
}

// latenciesMS lists every op's latency, times its block's scale when
// scaled is set.
func (p *phase) latenciesMS(scaled bool) []float64 {
	out := make([]float64, 0, len(p.results))
	for _, b := range p.blocks {
		for _, r := range p.results[b.lo:b.hi] {
			out = append(out, pick(scaled, b.wallScale)*ms(r.end.Sub(r.start)))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// report prints the diagnostics every run carries next to its metrics.
func (p *phase) report() {
	n := len(p.results)
	fmt.Printf("ops: sent %d succeeded %d failed %d; latency samples %d (%d beyond p90)\n",
		n, n-p.failed(), p.failed(), n, beyond(n, 0.9))
	for i, r := range p.results {
		if r.err != nil {
			fmt.Printf("op %d failed: %v\n", i, r.err)
			break
		}
	}
	fmt.Printf("host: steal_s=%.3f cpu_util=%.3f wall_s=%.3f GOMAXPROCS=%d go=%s\n",
		p.steal(), p.cpuUtil(), p.wallS(false), runtime.GOMAXPROCS(0), runtime.Version())
	var walls, cpus []string
	for _, b := range p.blocks {
		walls = append(walls, fmt.Sprintf("%.3f", b.wallScale))
		cpus = append(cpus, fmt.Sprintf("%.3f", b.cpuScale))
	}
	fmt.Printf("host speed per block, as a share of the reference: wall %s; cpu %s\n",
		strings.Join(walls, " "), strings.Join(cpus, " "))
}

func (p *phase) cpuUtil() float64 {
	return p.cpuS(false) / (p.wallS(false) * float64(runtime.GOMAXPROCS(0)))
}

// endToEnd computes the six end-to-end metrics, raw or scaled to the
// reference host speed.
func endToEnd(p *phase, setups []timing, scaled bool) map[string]metric {
	lat := p.latenciesMS(scaled)
	var setupS []float64
	for _, t := range setups {
		setupS = append(setupS, pick(scaled, t.scale)*t.raw)
	}
	return map[string]metric{
		"setup_s":            {percentile(setupS, 0.5), "s"},
		"latency_p50_ms":     {percentile(lat, 0.5), "ms"},
		"latency_p90_ms":     {percentile(lat, 0.9), "ms"},
		"problems_per_s":     {float64(p.problems) / p.wallS(scaled), "1/s"},
		"cpu_ms_per_problem": {1000 * p.cpuS(scaled) / float64(p.problems), "ms"},
		"heap_live_mb":       {p.heapMB, "MiB"},
	}
}

func runPlain(ctx context.Context, spec workloadSpec, w workload, seed int64) (*result, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	c, setups, err := setUp(ctx, w, seed, spec.setups, nil, cal)
	if err != nil {
		return nil, err
	}
	p := measure(ctx, w, c, cal)
	c.close()
	if cal.err != nil {
		return nil, cal.err
	}
	p.report()
	fmt.Println(cal.report())
	fmt.Printf("setup_s samples (raw s, host speed): %v\n", setups)
	fmt.Println("raw, at this host's speed:")
	printMetrics(endToEnd(p, setups, false))
	fmt.Println("scaled to the reference host speed:")
	m := endToEnd(p, setups, true)
	printMetrics(m)
	return &result{Attempted: len(p.results), Failed: p.failed(), Metrics: m}, nil
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
