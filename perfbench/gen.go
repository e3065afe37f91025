package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"clockroute/api"
	"clockroute/internal/floorplan"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/planwire"
)

// Input generation. Every request is built from the seed before any timer
// starts; the service receives only the generated requests.

const (
	pitchMM       = 0.25
	blocksPerGrid = 10
	hotCatalog    = 256 // route-hot catalog size: fits the 64 MiB cache many times over
	hotZipfS      = 1.1
	coldWarmups   = 8 // route-cold warm-up problems, outside the measured set
	ecoDie        = 64
	ecoNets       = 48
	ecoSources    = 8 // shared block pins the plan's nets fan out of
	ecoChanged    = ecoNets / 8
)

// clockPeriods are the block clocks (ps) problems draw from. All are slack
// enough that every generated problem routes at 0.25 mm pitch.
var clockPeriods = []float64{400, 500, 650, 800}

// Salts keep each workload's random stream independent of the others.
const (
	saltCold = 1 + iota
	saltHot
	saltHotDraws
	saltEco
)

func newRNG(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// blockedGrid draws a w×h die with floorplan.Random blocks and maps each
// block to blockages by kind: hard IP becomes an obstacle plus a one-node
// register keep-out halo (four rectangles), a wiring-dense block a wiring
// blockage, a clock-quiet block a register blockage. Ten blocks give the
// tens of rectangles real requests carry; decode and canonical hashing
// scale with them.
func blockedGrid(fpSeed int64, w, h int) (api.GridSpec, error) {
	fp, err := floorplan.Random(fpSeed, w, h, pitchMM, blocksPerGrid)
	if err != nil {
		return api.GridSpec{}, err
	}
	spec := api.GridSpec{W: w, H: h, PitchMM: pitchMM}
	for _, b := range fp.Blocks {
		r := b.Rect
		switch b.Kind {
		case floorplan.HardIP:
			spec.Obstacles = append(spec.Obstacles, wireRect(r))
			spec.RegisterBlockages = append(spec.RegisterBlockages,
				wireRect(geom.R(r.MinX-1, r.MaxY, r.MaxX+1, r.MaxY+1)),
				wireRect(geom.R(r.MinX-1, r.MinY-1, r.MaxX+1, r.MinY)),
				wireRect(geom.R(r.MinX-1, r.MinY, r.MinX, r.MaxY)),
				wireRect(geom.R(r.MaxX, r.MinY, r.MaxX+1, r.MaxY)))
		case floorplan.WiringDense:
			spec.WiringBlockages = append(spec.WiringBlockages, wireRect(r))
		case floorplan.ClockQuiet:
			spec.RegisterBlockages = append(spec.RegisterBlockages, wireRect(r))
		}
	}
	return spec, nil
}

func wireRect(r geom.Rect) api.Rect {
	return api.Rect{X0: r.MinX, Y0: r.MinY, X1: r.MaxX, Y1: r.MaxY}
}

// stratum is the i-th point of an additive recurrence with an irrational
// step: evenly spread over [0, 1) and independent of the seed. Problem
// shapes (die size, endpoint distance, kind, clocks) come from strata so
// that every seed sends the same mix of problem costs; the seed picks the
// floorplans and endpoints within each shape. Without it the mix alone
// moved a run's median latency by ±20% from seed to seed.
func stratum(i int, step float64) float64 {
	return math.Mod(float64(i+1)*step, 1)
}

// Irrational steps, one per stratified property.
const (
	stepW      = 0.7548776662466927
	stepH      = 0.5698402909980532
	stepDist   = 0.6180339887498949
	stepPeriod = 0.4142135623730951
)

// kindCycle fixes the 50% rbp, 30% gals, 20% fastpath mix exactly.
var kindCycle = [10]string{"rbp", "gals", "rbp", "fastpath", "rbp", "gals", "rbp", "gals", "rbp", "fastpath"}

// endpointAt draws a register-insertable node reachable from the BFS
// source (dist >= 0) exactly d steps from from in Manhattan terms.
func endpointAt(rng *rand.Rand, g *grid.Grid, dist []int, from geom.Point, d int) (geom.Point, bool) {
	for try := 0; try < 64; try++ {
		dx := rng.Intn(2*d+1) - d
		dy := d - abs(dx)
		if rng.Intn(2) == 0 {
			dy = -dy
		}
		p := from.Add(geom.Pt(dx, dy))
		if !g.InBounds(p) {
			continue
		}
		if id := g.ID(p); dist[id] >= 0 && g.RegisterInsertable(id) {
			return p, true
		}
	}
	return geom.Point{}, false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// routeProblem draws route problem i: a 32–64 node die with its shape,
// kind and clocks from the strata, and the floorplan and endpoints from
// rng. Endpoints sit 30–65% of the die's half-perimeter apart.
func routeProblem(rng *rand.Rand, i int) (*api.RouteRequest, error) {
	w := 32 + int(stratum(i, stepW)*33)
	h := 32 + int(stratum(i, stepH)*33)
	d := int(float64(w+h) * (0.3 + 0.35*stratum(i, stepDist)))
	req := &api.RouteRequest{Kind: kindCycle[i%len(kindCycle)]}
	pi := int(stratum(i, stepPeriod) * float64(len(clockPeriods)))
	switch req.Kind {
	case "rbp":
		req.PeriodPS = clockPeriods[pi]
	case "gals":
		req.SrcPeriodPS = clockPeriods[pi]
		req.DstPeriodPS = clockPeriods[(pi+1+(i/len(kindCycle))%3)%len(clockPeriods)]
	}
	for die := 0; die < 20; die++ {
		spec, err := blockedGrid(rng.Int63(), w, h)
		if err != nil {
			return nil, err
		}
		g, err := planwire.BuildGrid(&spec)
		if err != nil {
			return nil, err
		}
		for try := 0; try < 50; try++ {
			src := geom.Pt(rng.Intn(w), rng.Intn(h))
			if !g.RegisterInsertable(g.ID(src)) {
				continue
			}
			dst, ok := endpointAt(rng, g, g.BFS(g.ID(src)), src, d)
			if !ok {
				continue
			}
			req.Grid = spec
			req.Src = api.Point{X: src.X, Y: src.Y}
			req.Dst = api.Point{X: dst.X, Y: dst.Y}
			return req, nil
		}
	}
	return nil, fmt.Errorf("perfbench: no routable endpoints %d apart on 20 %dx%d dies", d, w, h)
}

// routeProblems draws route problems first..first+n-1 with pairwise
// distinct canonical hashes, redrawing any whose hash is already in seen.
func routeProblems(rng *rand.Rand, first, n int, seen map[api.ProblemHash]bool) ([]*api.RouteRequest, []api.ProblemHash, error) {
	reqs := make([]*api.RouteRequest, 0, n)
	hashes := make([]api.ProblemHash, 0, n)
	for len(reqs) < n {
		req, err := routeProblem(rng, first+len(reqs))
		if err != nil {
			return nil, nil, err
		}
		p, err := api.Canonicalize(req)
		if err != nil {
			return nil, nil, err
		}
		h := p.Hash()
		if seen[h] {
			continue
		}
		seen[h] = true
		reqs = append(reqs, req)
		hashes = append(hashes, h)
	}
	return reqs, hashes, nil
}

// coldInputs is the route-cold stream: warm-up problems for set-up, then
// the measured problems, all distinct.
type coldInputs struct {
	warm, ops             []*api.RouteRequest
	warmHashes, opsHashes []api.ProblemHash
}

func genCold(seed int64, ops int) (*coldInputs, error) {
	rng := newRNG(seed, saltCold)
	seen := map[api.ProblemHash]bool{}
	in := &coldInputs{}
	var err error
	if in.warm, in.warmHashes, err = routeProblems(rng, 0, coldWarmups, seen); err != nil {
		return nil, err
	}
	if in.ops, in.opsHashes, err = routeProblems(rng, coldWarmups, ops, seen); err != nil {
		return nil, err
	}
	return in, nil
}

// hotInputs is the route-hot catalog and the Zipf-drawn op sequence of
// catalog indices.
type hotInputs struct {
	catalog []*api.RouteRequest
	hashes  []api.ProblemHash
	draws   []int
}

func genHot(seed int64, ops int) (*hotInputs, error) {
	catalog, hashes, err := routeProblems(newRNG(seed, saltHot), 0, hotCatalog, map[api.ProblemHash]bool{})
	if err != nil {
		return nil, err
	}
	z := rand.NewZipf(newRNG(seed, saltHotDraws), hotZipfS, 1, hotCatalog-1)
	draws := make([]int, ops)
	for i := range draws {
		draws[i] = int(z.Uint64())
	}
	return &hotInputs{catalog: catalog, hashes: hashes, draws: draws}, nil
}

// ecoInputs is one die, its initial plan and a sequence of ECO revisions.
// Each revision is a full net list; revision k re-draws ecoChanged nets of
// revision k-1 (indices in changed[k]) into problems never seen before in
// the sequence, so every revision misses exactly that share.
type ecoInputs struct {
	grid      api.GridSpec
	revisions [][]api.NetSpec // revisions[0] is the initial plan
	hashes    [][]api.ProblemHash
	changed   [][]int
}

// ecoPin is a shared source pin: a block-side point two nodes out from the
// block edge, clear of any keep-out halo.
type ecoPin struct {
	at   geom.Point
	dist []int
}

func genEco(seed int64, revisions int) (*ecoInputs, error) {
	rng := newRNG(seed, saltEco)
	for try := 0; try < 20; try++ {
		in, err := tryEco(rng, revisions)
		if err == nil {
			return in, nil
		}
		if !errors.Is(err, errFewPins) {
			return nil, err
		}
	}
	return nil, errFewPins
}

var errFewPins = errors.New("perfbench: too few usable block pins")

func tryEco(rng *rand.Rand, revisions int) (*ecoInputs, error) {
	spec, err := blockedGrid(rng.Int63(), ecoDie, ecoDie)
	if err != nil {
		return nil, err
	}
	g, err := planwire.BuildGrid(&spec)
	if err != nil {
		return nil, err
	}
	pins := ecoPins(rng, &spec, g)
	if len(pins) < ecoSources {
		return nil, errFewPins
	}
	in := &ecoInputs{grid: spec}
	seen := map[api.ProblemHash]bool{}
	// Draw k (over the whole sequence) takes its length, 16–55 steps, and
	// its clocks from the strata: pin p runs clock p mod 4, and 40% of
	// nets cross into another clock domain (GALS).
	draws := 0
	draw := func(name string) (api.NetSpec, api.ProblemHash, error) {
		k := draws
		draws++
		d := 16 + int(stratum(k, stepDist)*40)
		for try := 0; try < 200; try++ {
			pi := rng.Intn(ecoSources)
			p := pins[pi]
			dst, ok := endpointAt(rng, g, p.dist, p.at, d)
			if !ok {
				continue
			}
			period := clockPeriods[pi%len(clockPeriods)]
			n := api.NetSpec{
				Name:        name,
				Src:         api.Point{X: p.at.X, Y: p.at.Y},
				Dst:         api.Point{X: dst.X, Y: dst.Y},
				SrcPeriodPS: period,
				DstPeriodPS: period,
			}
			if k%5 < 2 {
				n.DstPeriodPS = clockPeriods[(pi+1+k%3)%len(clockPeriods)]
			}
			prob, err := api.CanonicalizeNet(&in.grid, &n)
			if err != nil {
				return api.NetSpec{}, api.ProblemHash{}, err
			}
			if h := prob.Hash(); !seen[h] {
				seen[h] = true
				return n, h, nil
			}
		}
		return api.NetSpec{}, api.ProblemHash{}, fmt.Errorf("perfbench: no fresh net for %s", name)
	}
	nets := make([]api.NetSpec, ecoNets)
	hashes := make([]api.ProblemHash, ecoNets)
	for i := range nets {
		if nets[i], hashes[i], err = draw(fmt.Sprintf("n%02d", i)); err != nil {
			return nil, err
		}
	}
	in.revisions = append(in.revisions, nets)
	in.hashes = append(in.hashes, hashes)
	in.changed = append(in.changed, nil)
	for k := 1; k <= revisions; k++ {
		prev, prevH := in.revisions[k-1], in.hashes[k-1]
		nets := append([]api.NetSpec(nil), prev...)
		hashes := append([]api.ProblemHash(nil), prevH...)
		idx := rng.Perm(ecoNets)[:ecoChanged]
		for _, i := range idx {
			if nets[i], hashes[i], err = draw(prev[i].Name); err != nil {
				return nil, err
			}
		}
		in.revisions = append(in.revisions, nets)
		in.hashes = append(in.hashes, hashes)
		in.changed = append(in.changed, idx)
	}
	return in, nil
}

// ecoPins picks up to ecoSources shared source pins, one per block side
// tried in random order, each register-insertable and reaching at least
// half the die.
func ecoPins(rng *rand.Rand, spec *api.GridSpec, g *grid.Grid) []ecoPin {
	var rects []api.Rect
	rects = append(rects, spec.Obstacles...)
	rects = append(rects, spec.WiringBlockages...)
	var pins []ecoPin
	for _, bi := range rng.Perm(len(rects)) {
		r := rects[bi]
		cx, cy := (r.X0+r.X1-1)/2, (r.Y0+r.Y1-1)/2
		side := rng.Intn(4)
		at := [4]geom.Point{
			geom.Pt(r.X1+1, cy), geom.Pt(r.X0-2, cy),
			geom.Pt(cx, r.Y1+1), geom.Pt(cx, r.Y0-2),
		}[side]
		if !g.InBounds(at) || !g.RegisterInsertable(g.ID(at)) {
			continue
		}
		dist := g.BFS(g.ID(at))
		if reached(dist) < g.NumNodes()/2 {
			continue
		}
		pins = append(pins, ecoPin{at: at, dist: dist})
		if len(pins) == ecoSources {
			break
		}
	}
	return pins
}

func reached(dist []int) int {
	n := 0
	for _, d := range dist {
		if d >= 0 {
			n++
		}
	}
	return n
}
