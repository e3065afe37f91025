package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"clockroute/internal/elmore"
	"clockroute/internal/floorplan"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/tech"
)

// allocProblem is large enough that the pre-arena implementation allocated
// thousands of candidates per search (one per expansion), so the budgets
// below would fail by two orders of magnitude without the scratch pool.
func allocProblem(t *testing.T) *Problem {
	t.Helper()
	g := grid.MustNew(41, 5, 0.5)
	return problemOn(t, g, geom.Pt(0, 2), geom.Pt(40, 2))
}

// TestSearchAllocBudgets pins the post-arena allocation counts of every
// algorithm: with pooled scratch memory, a steady-state search allocates
// only its result (Result, Path, engine and closure headers) — nothing
// proportional to the expansion count. The budget is deliberately loose
// (pool misses after a GC re-allocate a few slabs) but two orders of
// magnitude below the old one-alloc-per-candidate regime.
func TestSearchAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime randomizes sync.Pool retention; alloc budgets are asserted without -race")
	}
	p := allocProblem(t)
	const budget = 64.0
	cases := map[string]func() error{
		"fastpath": func() error { _, err := FastPath(p, Options{}); return err },
		"rbp":      func() error { _, err := RBP(p, 300, Options{}); return err },
		"rbp-array": func() error {
			_, err := RBPArrayQueues(p, 300, Options{})
			return err
		},
		"rbp-slack": func() error {
			_, err := RBP(p, 300, Options{MaximizeSlack: true})
			return err
		},
		"gals": func() error { _, err := GALS(p, 300, 450, Options{}); return err },
		// The bounds-disabled baselines pin that the admissible-bound
		// precompute (BFS fields, probe, remainder table) stays inside the
		// same budget as the raw search — its memory must come from the
		// pooled Scratch, not per-search allocation.
		"fastpath-nobounds": func() error { _, err := FastPath(p, Options{DisableBounds: true}); return err },
		"rbp-nobounds": func() error {
			_, err := RBP(p, 300, Options{DisableBounds: true})
			return err
		},
		// The unified entry point with telemetry disabled (nil sink) must
		// cost the same as calling the algorithm directly: the tracing
		// layer's zero-cost-when-off contract.
		"route-untraced": func() error {
			_, err := Route(context.Background(), p, Request{Kind: KindRBP, PeriodPS: 300})
			return err
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			if err := run(); err != nil { // warm the pool
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := run(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > budget {
				t.Errorf("%s allocates %.0f/op, budget %.0f: arena/scratch reuse regressed", name, allocs, budget)
			}
		})
	}
}

// routeColdDies draws n problems shaped like perfbench's route-cold
// requests, the way the root package's BenchmarkShortSearches draws its
// batch: 32–64-node dies at 0.25 mm with floorplan.Random blocks,
// endpoints 30–65% of the half-perimeter apart on register-insertable
// nodes the source reaches, a Model per problem, and RBP:GALS:FastPath
// requests 5:3:2 at 400–800 ps.
func routeColdDies(t *testing.T, seed int64, n int) ([]*Problem, []Request) {
	t.Helper()
	kinds := [10]Kind{KindRBP, KindGALS, KindRBP, KindFastPath, KindRBP, KindGALS, KindRBP, KindGALS, KindRBP, KindFastPath}
	periods := []float64{400, 500, 650, 800}
	rng := rand.New(rand.NewSource(seed))
	var probs []*Problem
	var reqs []Request
	for len(probs) < n {
		w, h := 32+rng.Intn(33), 32+rng.Intn(33)
		fp, err := floorplan.Random(rng.Int63(), w, h, 0.25, 10)
		if err != nil {
			t.Fatal(err)
		}
		g, err := fp.BuildGrid()
		if err != nil {
			t.Fatal(err)
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
		m, err := elmore.NewModel(tech.CongPan70nm(), g.PitchMM())
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProblem(g, m, g.ID(src), g.ID(dst))
		if err != nil {
			t.Fatal(err)
		}
		req := Request{Kind: kinds[len(probs)%len(kinds)]}
		pi := rng.Intn(len(periods))
		switch req.Kind {
		case KindRBP:
			req.PeriodPS = periods[pi]
		case KindGALS:
			req.SrcPeriodPS = periods[pi]
			req.DstPeriodPS = periods[(pi+1+rng.Intn(3))%len(periods)]
		}
		probs = append(probs, p)
		reqs = append(reqs, req)
	}
	return probs, reqs
}

// TestNewDieAllocBudget holds TestSearchAllocBudgets' budget on grids the
// pooled scratch has never seen. After a warm-up on a few dies, every
// measured search routes a new route-cold-shaped die, as the service does
// for each distinct request, so no memory the scratch grew at earlier
// node IDs can serve it by accident: what the scratch keeps must depend
// on how large a search grows, not on where.
func TestNewDieAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime randomizes sync.Pool retention; alloc budgets are asserted without -race")
	}
	const warm, runs, budget = 5, 40, 64.0
	probs, reqs := routeColdDies(t, 25, warm+runs+1)
	ctx := context.Background()
	next := 0
	route := func() {
		if _, err := Route(ctx, probs[next], reqs[next]); err != nil {
			t.Fatalf("die %d (%v): %v", next, reqs[next].Kind, err)
		}
		next++
	}
	for next < warm {
		route()
	}
	if allocs := testing.AllocsPerRun(runs, route); allocs > budget {
		t.Errorf("a search on a new die allocates %.0f/op, budget %.0f: scratch memory grows per node", allocs, budget)
	}
}

// TestBoundsPrecomputeAllocBudget pins the steady-state cost of the
// admissible-bound machinery itself: once a pooled Scratch has sized its
// BFS distance field, probe window, remainder-table and key-table slabs on
// a grid, and the model's curves are swept, re-preparing bounds for the
// same problem shape — the curve lookups included — must allocate nothing.
// (The probe's kernel run is covered by TestSearchAllocBudgets.)
func TestBoundsPrecomputeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime randomizes sync.Pool retention; alloc budgets are asserted without -race")
	}
	p := allocProblem(t)
	ref, err := FastPath(p, Options{DisableBounds: true})
	if err != nil {
		t.Fatal(err)
	}
	sc := new(Scratch)
	warm := func() {
		bd := sc.prepBounds(p)
		if bd.pathWindow(p) == nil {
			t.Fatal("pathWindow found no path on a reachable problem")
		}
		bd.segBound(0, p.Model, ref.Latency, int(bd.maxSrc), plainSeg)
		bd.keyBound(p.Model, ref.Latency, int(bd.maxSrc), true)
	}
	warm()
	if allocs := testing.AllocsPerRun(20, warm); allocs != 0 {
		t.Errorf("bounds precompute allocates %.0f/op steady-state, want 0: BFS/probe slabs must come from Scratch", allocs)
	}
}

// resultSnap is the schedule-independent portion of a Result, for
// comparing searches run on fresh versus pooled scratch memory.
type resultSnap struct {
	latency, srcDelay, slack float64
	registers, buffers       int
	path                     string
	nodes                    string
	stats                    Stats
}

func snap(res *Result) resultSnap {
	s := resultSnap{
		latency:   res.Latency,
		srcDelay:  res.SourceDelay,
		slack:     res.SlackPS,
		registers: res.Registers,
		buffers:   res.Buffers,
		path:      res.Path.String(),
		nodes:     fmt.Sprint(res.Path.Nodes),
		stats:     res.Stats,
	}
	s.stats.Elapsed = 0 // wall time is the one legitimately varying field
	return s
}

// TestScratchPoolReuseIdentical proves no state leaks between searches
// sharing pooled scratch memory: back-to-back Route calls — interleaved
// with aborted searches that release their scratch mid-wave — must produce
// results identical to a search run on a brand-new, never-used Scratch.
// Run under -race (the tier-1 suite does) to also check pool handoff.
func TestScratchPoolReuseIdentical(t *testing.T) {
	p := allocProblem(t)
	ctx := context.Background()
	reqs := map[string]Request{
		"fastpath":  {Kind: KindFastPath},
		"rbp":       {Kind: KindRBP, PeriodPS: 300},
		"rbp-array": {Kind: KindRBP, PeriodPS: 300, ArrayQueues: true},
		"rbp-slack": {Kind: KindRBP, PeriodPS: 300, Options: Options{MaximizeSlack: true}},
		"gals":      {Kind: KindGALS, SrcPeriodPS: 300, DstPeriodPS: 450},
	}

	// Fresh-state baselines: run each algorithm on its own zero-value
	// Scratch, bypassing the pool entirely.
	fresh := make(map[string]resultSnap)
	for name, req := range reqs {
		var res *Result
		var err error
		switch {
		case req.Kind == KindFastPath:
			res, err = search(p, fastPathScheme(), req.Options, new(Scratch), nil, nil)
		case req.Kind == KindRBP && req.ArrayQueues:
			res, err = search(p, rbpScheme(p, req.PeriodPS, arrayQueues), req.Options, new(Scratch), nil, nil)
		case req.Kind == KindRBP:
			res, err = search(p, rbpScheme(p, req.PeriodPS, twoQueue), req.Options, new(Scratch), nil, nil)
		default:
			res, err = search(p, galsScheme(p, req.SrcPeriodPS, req.DstPeriodPS), req.Options, new(Scratch), nil, nil)
		}
		if err != nil {
			t.Fatalf("%s fresh: %v", name, err)
		}
		fresh[name] = snap(res)
	}

	// abort kills a search partway so its scratch returns to the pool with
	// half-filled queues, a partly-used arena, and stale store epochs.
	abort := func() {
		if _, err := Route(ctx, p, Request{
			Kind: KindRBP, PeriodPS: 300, Options: Options{MaxConfigs: 7},
		}); !errors.Is(err, ErrAborted) {
			t.Fatalf("MaxConfigs abort: %v", err)
		}
		if _, err := Route(ctx, p, Request{
			Kind: KindRBP, PeriodPS: 300,
			Options: Options{Deadline: time.Now().Add(-time.Second)},
		}); !errors.Is(err, ErrAborted) {
			t.Fatalf("deadline abort: %v", err)
		}
	}

	for round := 0; round < 3; round++ {
		for name, req := range reqs {
			abort()
			res, err := Route(ctx, p, req)
			if err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			if got := snap(res); got != fresh[name] {
				t.Errorf("%s round %d: pooled result diverged\n got %+v\nwant %+v",
					name, round, got, fresh[name])
			}
		}
	}

	// Concurrent reuse: every worker's searches race for the same pool.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				for name, req := range reqs {
					res, err := Route(ctx, p, req)
					if err != nil {
						t.Errorf("%s concurrent: %v", name, err)
						return
					}
					if got := snap(res); got != fresh[name] {
						t.Errorf("%s concurrent: pooled result diverged", name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
