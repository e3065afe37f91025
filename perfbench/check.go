package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"clockroute/api"
	"clockroute/internal/candidate"
	"clockroute/internal/core"
	"clockroute/internal/elmore"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/planwire"
	"clockroute/internal/route"
	"clockroute/internal/tech"
)

// The correctness gate. Every answer is rebuilt from its wire form and
// re-verified by the independent checkers in internal/route; the verified
// latency must equal the reported one; a problem answered twice in a run
// must get the same answer; and on the default seed every optimal latency
// must match the golden list generated from the seed commit.

const (
	defaultSeed = 1
	goldenFile  = "perfbench/golden_seed1.txt"
	// latencyTol is the float tolerance (ps) for verified-vs-reported and
	// golden-vs-reported latencies, the route verifier's own epsilon.
	latencyTol = 1e-6
)

// answer is the identity of an answer, free of timing and cache flags.
type answer [sha256.Size]byte

type checker struct {
	tc     *tech.Tech
	golden map[string]float64 // nil off the default seed

	mu            sync.Mutex
	answers       map[api.ProblemHash]answer
	grids         map[*api.GridSpec]*grid.Grid
	models        map[float64]*elmore.Model
	checked       int
	goldenChecked int
	goldenMissing int
	failures      []string
}

func newChecker(golden map[string]float64) *checker {
	return &checker{
		tc:      tech.CongPan70nm(),
		golden:  golden,
		answers: map[api.ProblemHash]answer{},
		grids:   map[*api.GridSpec]*grid.Grid{},
		models:  map[float64]*elmore.Model{},
	}
}

func (c *checker) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	c.mu.Lock()
	if len(c.failures) < 20 {
		c.failures = append(c.failures, err.Error())
	}
	c.mu.Unlock()
	return err
}

// gridFor builds (once per spec) the grid an answer is checked on.
func (c *checker) gridFor(spec *api.GridSpec) (*grid.Grid, *elmore.Model, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.grids[spec]
	if !ok {
		var err error
		if g, err = planwire.BuildGrid(spec); err != nil {
			return nil, nil, err
		}
		c.grids[spec] = g
	}
	m, ok := c.models[spec.PitchMM]
	if !ok {
		var err error
		if m, err = elmore.NewModel(c.tc, spec.PitchMM); err != nil {
			return nil, nil, err
		}
		c.models[spec.PitchMM] = m
	}
	return g, m, nil
}

// forget drops the grid built for a one-off spec.
func (c *checker) forget(spec *api.GridSpec) {
	c.mu.Lock()
	delete(c.grids, spec)
	c.mu.Unlock()
}

func wirePath(g *grid.Grid, pts []api.Point, gates []string) (*route.Path, error) {
	if len(pts) != len(gates) {
		return nil, fmt.Errorf("%d path points but %d gates", len(pts), len(gates))
	}
	p := &route.Path{Nodes: make([]int, len(pts)), Gates: make([]candidate.Gate, len(gates))}
	for i, pt := range pts {
		if !g.InBounds(geom.Pt(pt.X, pt.Y)) {
			return nil, fmt.Errorf("path point %v off the die", pt)
		}
		p.Nodes[i] = g.ID(geom.Pt(pt.X, pt.Y))
		gt, err := planwire.ParseGate(gates[i])
		if err != nil {
			return nil, err
		}
		p.Gates[i] = gt
	}
	return p, nil
}

// verify re-derives the latency of a path: VerifySingleClock for rbp,
// VerifyMultiClock for gals, and the single register-to-register segment
// delay for fastpath.
func verify(p *route.Path, g *grid.Grid, m *elmore.Model, kind string, ts, tt float64) (float64, error) {
	switch kind {
	case "rbp":
		return route.VerifySingleClock(p, g, m, ts)
	case "gals":
		return route.VerifyMultiClock(p, g, m, ts, tt)
	case "fastpath":
		if _, err := route.VerifySingleClock(p, g, m, math.Inf(1)); err != nil {
			return 0, err
		}
		segs := p.SegmentDelays(m)
		if len(segs) != 1 {
			return 0, fmt.Errorf("fastpath answer has %d clocked segments, want 1", len(segs))
		}
		return segs[0], nil
	}
	return 0, fmt.Errorf("unknown kind %q", kind)
}

func answerOf(lat float64, regs, bufs int, pts []api.Point, gates []string) answer {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(math.Float64bits(lat))
	put(uint64(regs))
	put(uint64(bufs))
	for i, pt := range pts {
		put(uint64(uint32(pt.X))<<32 | uint64(uint32(pt.Y)))
		h.Write([]byte(gates[i]))
		h.Write([]byte{0})
	}
	var a answer
	h.Sum(a[:0])
	return a
}

// settle records a verified answer: it must equal any earlier answer to
// the same problem, and on the default seed the golden latency.
func (c *checker) settle(hash api.ProblemHash, lat float64, a answer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checked++
	if prev, ok := c.answers[hash]; ok && prev != a {
		return fmt.Errorf("problem %s answered differently twice", hash.Hex()[:16])
	}
	c.answers[hash] = a
	if c.golden == nil {
		return nil
	}
	want, ok := c.golden[hash.Hex()[:16]]
	if !ok {
		c.goldenMissing++
		return nil
	}
	c.goldenChecked++
	if math.Abs(want-lat) > latencyTol {
		return fmt.Errorf("problem %s latency %v ps, golden %v ps", hash.Hex()[:16], lat, want)
	}
	return nil
}

// route checks one /v1/route answer to req, whose canonical hash is hash.
func (c *checker) route(req *api.RouteRequest, hash api.ProblemHash, resp *api.RouteResponse) error {
	if resp.ProblemHash != hash.Hex() {
		return c.fail("route %s: server hashed it as %q", hash.Hex()[:16], resp.ProblemHash)
	}
	g, m, err := c.gridFor(&req.Grid)
	if err != nil {
		return c.fail("route %s: %v", hash.Hex()[:16], err)
	}
	defer c.forget(&req.Grid)
	p, err := wirePath(g, resp.Path, resp.Gates)
	if err != nil {
		return c.fail("route %s: %v", hash.Hex()[:16], err)
	}
	ts, tt := req.PeriodPS, req.DstPeriodPS
	if req.Kind == "gals" {
		ts = req.SrcPeriodPS
	}
	lat, err := verify(p, g, m, req.Kind, ts, tt)
	if err != nil {
		return c.fail("route %s: verifier: %v", hash.Hex()[:16], err)
	}
	if math.Abs(lat-resp.LatencyPS) > latencyTol {
		return c.fail("route %s: verified latency %v ps, reported %v ps", hash.Hex()[:16], lat, resp.LatencyPS)
	}
	if !joins(p, g, req.Src, req.Dst) {
		return c.fail("route %s: path does not join the requested endpoints", hash.Hex()[:16])
	}
	if err := c.settle(hash, resp.LatencyPS, digest(resp)); err != nil {
		return c.fail("route: %v", err)
	}
	return nil
}

// joins reports whether p runs from src to dst.
func joins(p *route.Path, g *grid.Grid, src, dst api.Point) bool {
	return len(p.Nodes) > 0 && p.Nodes[0] == g.ID(geom.Pt(src.X, src.Y)) && p.Nodes[len(p.Nodes)-1] == g.ID(geom.Pt(dst.X, dst.Y))
}

func digest(resp *api.RouteResponse) answer {
	return answerOf(resp.LatencyPS, resp.Registers, resp.Buffers, resp.Path, resp.Gates)
}

// sameRoute is the cheap check for a repeat answer: it must be identical
// to the already verified reference.
func (c *checker) sameRoute(ref answer, resp *api.RouteResponse) error {
	if digest(resp) != ref {
		return c.fail("route %s: repeat answer differs from the first", resp.ProblemHash)
	}
	return nil
}

// served returns the first answer recorded for a problem.
func (c *checker) served(hash api.ProblemHash) (answer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.answers[hash]
	return a, ok
}

// plan checks a whole plan answer against its nets (in any order).
func (c *checker) plan(spec *api.GridSpec, nets []api.NetSpec, hashes []api.ProblemHash, results []api.NetResult) error {
	if len(results) != len(nets) {
		return c.fail("plan: %d results for %d nets", len(results), len(nets))
	}
	byName := make(map[string]int, len(nets))
	for i := range nets {
		byName[nets[i].Name] = i
	}
	g, m, err := c.gridFor(spec)
	if err != nil {
		return c.fail("plan: %v", err)
	}
	for _, nr := range results {
		i, ok := byName[nr.Name]
		if !ok {
			return c.fail("plan: unexpected net %q", nr.Name)
		}
		delete(byName, nr.Name)
		n := &nets[i]
		if nr.Error != "" {
			return c.fail("plan: net %s: %s", n.Name, nr.Error)
		}
		if nr.ProblemHash != hashes[i].Hex() {
			return c.fail("plan: net %s: server hashed it as %q", n.Name, nr.ProblemHash)
		}
		p, err := wirePath(g, nr.Path, nr.Gates)
		if err != nil {
			return c.fail("plan: net %s: %v", n.Name, err)
		}
		kind := "rbp"
		if n.SrcPeriodPS != n.DstPeriodPS {
			kind = "gals"
		}
		if nr.Mode != kind {
			return c.fail("plan: net %s: mode %q, want %q", n.Name, nr.Mode, kind)
		}
		lat, err := verify(p, g, m, kind, n.SrcPeriodPS, n.DstPeriodPS)
		if err != nil {
			return c.fail("plan: net %s: verifier: %v", n.Name, err)
		}
		if math.Abs(lat-nr.LatencyPS) > latencyTol {
			return c.fail("plan: net %s: verified latency %v ps, reported %v ps", n.Name, lat, nr.LatencyPS)
		}
		if !joins(p, g, n.Src, n.Dst) {
			return c.fail("plan: net %s: path does not join the net's endpoints", n.Name)
		}
		if err := c.settle(hashes[i], nr.LatencyPS, answerOf(nr.LatencyPS, nr.Registers, nr.Buffers, nr.Path, nr.Gates)); err != nil {
			return c.fail("plan: net %s: %v", n.Name, err)
		}
	}
	return nil
}

// gateSummary is the line every run prints about what the gate checked.
func (c *checker) gateSummary(seed int64) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := fmt.Sprintf("gate: %d answers verified, %d distinct problems, %d failures", c.checked, len(c.answers), len(c.failures))
	if c.golden == nil {
		return s + fmt.Sprintf("; seed %d is not the default seed %d, so only the verifier and consistency checks ran (no golden latencies)", seed, defaultSeed)
	}
	s += fmt.Sprintf("; %d latencies matched the golden list within %g ps", c.goldenChecked, latencyTol)
	if c.goldenMissing > 0 {
		s += fmt.Sprintf(", %d problems beyond the list checked by the verifier only", c.goldenMissing)
	}
	return s
}

func loadGolden(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("perfbench: golden list: %w", err)
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("perfbench: golden list: bad line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("perfbench: golden list: %w", err)
		}
		out[key] = v
	}
	return out, sc.Err()
}

func writeGolden(path string, lat map[string]float64, note string) error {
	keys := make([]string, 0, len(lat))
	for k := range lat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# " + note + "\n")
	b.WriteString("# problem-hash-prefix optimal-latency-ps\n")
	for _, k := range keys {
		b.WriteString(k + " " + strconv.FormatFloat(lat[k], 'g', -1, 64) + "\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// goldenMain writes the default seed's optimal latencies, computed by the
// library directly (not through the service), for every problem a run of
// BENCHMARK.json's run_seconds sends on any workload.
func goldenMain(args []string) int {
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench golden takes no arguments")
		return 2
	}
	bf, err := loadBenchmark()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	type job struct {
		key   string
		route *api.RouteRequest
		grid  *api.GridSpec
		net   *api.NetSpec
	}
	var jobs []job
	seen := map[string]bool{}
	addRoute := func(reqs []*api.RouteRequest, hashes []api.ProblemHash) {
		for i, r := range reqs {
			if k := hashes[i].Hex()[:16]; !seen[k] {
				seen[k] = true
				jobs = append(jobs, job{key: k, route: r})
			}
		}
	}
	for _, spec := range workloads {
		ops := opCount(spec, bf.RunSeconds)
		switch spec.name {
		case "route-cold":
			in, err := genCold(defaultSeed, ops)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			addRoute(in.warm, in.warmHashes)
			addRoute(in.ops, in.opsHashes)
		case "route-hot":
			in, err := genHot(defaultSeed, ops)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			addRoute(in.catalog, in.hashes)
		default: // plan-eco and plan-sharded send the same revisions
			in, err := genEco(defaultSeed, ops)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			for r, nets := range in.revisions {
				for i := range nets {
					if k := in.hashes[r][i].Hex()[:16]; !seen[k] {
						seen[k] = true
						jobs = append(jobs, job{key: k, grid: &in.grid, net: &nets[i]})
					}
				}
			}
		}
	}
	rp := newReplayer(nil, nil, nil)
	lat := make([]float64, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	const workers = 2
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(jobs); i += workers {
				j := jobs[i]
				if j.route != nil {
					lat[i], errs[i] = routeLatency(rp, j.route)
					continue
				}
				pl, err := planwire.NewStreamPlanner(j.grid, tech.CongPan70nm(), nil)
				if err != nil {
					errs[i] = err
					continue
				}
				nr := pl.RouteNet(planwire.SpecFromNet(j.net))
				lat[i], errs[i] = nr.LatencyPS, nr.Err
			}
		}(k)
	}
	wg.Wait()
	out := map[string]float64{}
	for i, j := range jobs {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "perfbench golden: problem %s: %v\n", j.key, errs[i])
			return 1
		}
		if math.IsNaN(lat[i]) || math.IsInf(lat[i], 0) {
			fmt.Fprintf(os.Stderr, "perfbench golden: problem %s: latency %v\n", j.key, lat[i])
			return 1
		}
		out[j.key] = lat[i]
	}
	note := fmt.Sprintf("perfbench golden: optimal latencies of every problem seed %d sends in %d-second runs, computed by core.Route and planner.RouteNet", defaultSeed, bf.RunSeconds)
	if err := writeGolden(goldenFile, out, note); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("wrote %d latencies to %s\n", len(out), goldenFile)
	return 0
}

func routeLatency(rp *replayer, req *api.RouteRequest) (float64, error) {
	prob, err := rp.problem(req)
	if err != nil {
		return 0, err
	}
	kind, err := core.ParseKind(req.Kind)
	if err != nil {
		return 0, err
	}
	res, err := core.Route(context.Background(), prob, core.Request{
		Kind: kind, PeriodPS: req.PeriodPS, SrcPeriodPS: req.SrcPeriodPS, DstPeriodPS: req.DstPeriodPS,
	})
	if err != nil {
		return 0, err
	}
	return res.Latency, nil
}
