package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"clockroute/internal/geom"
	"clockroute/internal/grid"
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

// TestBoundsPrecomputeAllocBudget pins the steady-state cost of the
// admissible-bound machinery itself: once a pooled Scratch has sized its
// BFS distance field, probe window, remainder-table and key-table slabs on
// a grid, re-preparing bounds for the same problem shape must allocate
// nothing.
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
		bd := sc.PrepBounds(p)
		if bd.pathWindow(p) == nil {
			t.Fatal("pathWindow found no path on a reachable problem")
		}
		bd.segBound(0, p.Model, ref.Latency, int(bd.maxSrc), false, false)
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
			res, err = fastPath(p, req.Options, new(Scratch), nil)
		case req.Kind == KindRBP && req.ArrayQueues:
			res, err = search(p, rbpScheme(p, req.PeriodPS, arrayQueues), req.Options, new(Scratch), nil)
		case req.Kind == KindRBP:
			res, err = search(p, rbpScheme(p, req.PeriodPS, twoQueue), req.Options, new(Scratch), nil)
		default:
			res, err = search(p, galsScheme(p, req.SrcPeriodPS, req.DstPeriodPS), req.Options, new(Scratch), nil)
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
