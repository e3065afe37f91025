package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"clockroute/internal/geom"
	"clockroute/internal/grid"
)

// bigProblem is large enough that every search needs many abort strides.
func bigProblem(t *testing.T) *Problem {
	t.Helper()
	g := grid.MustNew(101, 101, 0.25)
	return problemOn(t, g, geom.Pt(5, 5), geom.Pt(95, 95))
}

func TestRouteDispatchesAllKinds(t *testing.T) {
	g := grid.MustNew(41, 11, 0.5)
	p := problemOn(t, g, geom.Pt(0, 5), geom.Pt(40, 5))
	ctx := context.Background()

	fpDirect, err := FastPath(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fpVia, err := Route(ctx, p, Request{Kind: KindFastPath})
	if err != nil {
		t.Fatal(err)
	}
	if fpVia.Latency != fpDirect.Latency || fpVia.Stats.Configs != fpDirect.Stats.Configs {
		t.Errorf("fastpath via Route diverged: %+v vs %+v", fpVia, fpDirect)
	}

	rbpDirect, err := RBP(p, 400, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rbpVia, err := Route(ctx, p, Request{Kind: KindRBP, PeriodPS: 400})
	if err != nil {
		t.Fatal(err)
	}
	if rbpVia.Latency != rbpDirect.Latency || rbpVia.Registers != rbpDirect.Registers {
		t.Errorf("rbp via Route diverged")
	}
	// RBP reads PeriodPS only; the GALS endpoint periods are not a fallback.
	if _, err := Route(ctx, p, Request{Kind: KindRBP, SrcPeriodPS: 400, DstPeriodPS: 400}); err == nil {
		t.Error("rbp without PeriodPS must fail")
	}

	galsDirect, err := GALS(p, 300, 250, Options{})
	if err != nil {
		t.Fatal(err)
	}
	galsVia, err := Route(ctx, p, Request{Kind: KindGALS, SrcPeriodPS: 300, DstPeriodPS: 250})
	if err != nil {
		t.Fatal(err)
	}
	if galsVia.Latency != galsDirect.Latency || galsVia.RegS != galsDirect.RegS {
		t.Errorf("gals via Route diverged")
	}

	if _, err := Route(ctx, p, Request{Kind: Kind(99)}); err == nil {
		t.Error("unknown kind must fail")
	}
}

func TestRouteCancelledContextAbortsPromptly(t *testing.T) {
	p := bigProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: must not search at all
	start := time.Now()
	_, err := Route(ctx, p, Request{Kind: KindRBP, PeriodPS: 400})
	if !errors.Is(err, ErrAborted) || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want ErrAborted wrapping context.Canceled", err)
	}
	if e := time.Since(start); e > time.Second {
		t.Errorf("pre-cancelled Route took %v", e)
	}
}

func TestRouteDeadlineAbortsMidSearch(t *testing.T) {
	p := bigProblem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Route(ctx, p, Request{Kind: KindRBP, PeriodPS: 400})
	if !errors.Is(err, ErrAborted) {
		t.Errorf("err = %v, want ErrAborted", err)
	}
	if errors.Is(err, ErrNoPath) {
		t.Errorf("abort must not claim infeasibility: %v", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("deadline abort took %v", e)
	}
}

func TestOptionsDeadlineAbortsWithoutContext(t *testing.T) {
	p := bigProblem(t)
	opts := Options{Deadline: time.Now().Add(5 * time.Millisecond)}
	for name, run := range map[string]func() error{
		"fastpath": func() error { _, err := FastPath(p, opts); return err },
		"rbp":      func() error { _, err := RBP(p, 400, opts); return err },
		"gals":     func() error { _, err := GALS(p, 400, 300, opts); return err },
	} {
		start := time.Now()
		err := run()
		if err != nil && !errors.Is(err, ErrAborted) {
			t.Errorf("%s: err = %v, want ErrAborted or success", name, err)
		}
		if err == nil {
			t.Errorf("%s: finished a 101x101 search in under the deadline?", name)
		}
		if e := time.Since(start); e > 5*time.Second {
			t.Errorf("%s: abort took %v", name, e)
		}
	}

	// A search shorter than one abort stride must still see an expired
	// deadline or a firing hook: the first pop polls both.
	small := problemOn(t, grid.MustNew(6, 1, 0.5), geom.Pt(0, 0), geom.Pt(5, 0))
	sentinel := errors.New("shed")
	for label, o := range map[string]Options{
		"deadline": {Deadline: time.Now().Add(-time.Second)},
		"hook":     {Abort: func() error { return sentinel }},
	} {
		for name, run := range map[string]func() (*Result, error){
			"fastpath": func() (*Result, error) { return FastPath(small, o) },
			"rbp":      func() (*Result, error) { return RBP(small, 400, o) },
			"gals":     func() (*Result, error) { return GALS(small, 400, 300, o) },
		} {
			if res, err := run(); !errors.Is(err, ErrAborted) {
				configs := 0
				if res != nil {
					configs = res.Stats.Configs
				}
				t.Errorf("small %s %s: err = %v after %d configs, want ErrAborted", label, name, err, configs)
			}
		}
	}
}

func TestAbortHookErrorIsWrapped(t *testing.T) {
	p := bigProblem(t)
	sentinel := errors.New("load shed")
	calls := 0
	opts := Options{Abort: func() error {
		calls++
		if calls > 2 {
			return sentinel
		}
		return nil
	}}
	_, err := RBP(p, 400, opts)
	if !errors.Is(err, ErrAborted) || !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want ErrAborted wrapping the hook error", err)
	}
}

func TestMaxConfigsAbortsEveryAlgorithm(t *testing.T) {
	p := bigProblem(t)
	opts := Options{MaxConfigs: 50}
	for name, run := range map[string]func() error{
		"fastpath": func() error { _, err := FastPath(p, opts); return err },
		"rbp":      func() error { _, err := RBP(p, 400, opts); return err },
		"gals":     func() error { _, err := GALS(p, 400, 300, opts); return err },
	} {
		if err := run(); !errors.Is(err, ErrAborted) {
			t.Errorf("%s: err = %v, want ErrAborted", name, err)
		}
	}
}

func TestCheckAbortStrideSkipsHooks(t *testing.T) {
	calls := 0
	opts := Options{Abort: func() error { calls++; return nil }}
	for c := 1; c <= 3*abortStride; c++ {
		if err := opts.CheckAbort(c); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 3 {
		t.Errorf("hook ran %d times over 3 strides, want 3", calls)
	}
}
