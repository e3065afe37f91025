package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"clockroute/api"
	"clockroute/client"
)

// A workload is a fixed, seeded sequence of closed-loop ops: every run
// sends the same ops in the same order, never for a fixed duration.
type workload interface {
	// backends is the number of coordinated backends (0: a lone front).
	backends() int
	// clients is the number of closed-loop client goroutines (and
	// connections); client c sends ops c, c+clients, ...
	clients() int
	ops() int
	// problems is the number of routing problems op i answers.
	problems(i int) int
	// warm sends the set-up requests. It returns the checks of their
	// answers, which run after the set-up clock stops.
	warm(ctx context.Context, c *cluster) ([]func() error, error)
	// op sends op i; the result's check verifies its answer later.
	op(ctx context.Context, c *cluster, i int) opResult
	// replayWarm puts set-up's answers into the replay cache.
	replayWarm(rp *replayer)
	// replay sends op i's inputs through the layers' entry points.
	replay(ctx context.Context, rp *replayer, i int) error
}

type opResult struct {
	start, end time.Time
	// searched counts the problems answered with cached=false.
	searched int
	// first is when the first streamed net arrived (streamed plans only).
	first time.Time
	err   error
	// check runs the correctness gate on the answer after the phase.
	check func() error
}

type workloadSpec struct {
	name string
	// opsPerSecond sizes a run: ops = max(minOps, seconds*opsPerSecond),
	// calibrated so the measured phase lasts about --seconds on a 2-vCPU
	// host.
	opsPerSecond float64
	// setups is how many times a run boots and warms the system; setup_s
	// is their median.
	setups int
	make   func(seed int64, ops int, chk *checker) (workload, error)
}

// minOps leaves at least ten samples beyond the 90th percentile.
const minOps = 100

var workloads = []workloadSpec{
	{
		name: "route-cold", opsPerSecond: 40, setups: 5,
		make: newRouteCold,
	},
	{
		name: "route-hot", opsPerSecond: 4500, setups: 2,
		make: newRouteHot,
	},
	{
		name: "plan-eco", opsPerSecond: 8, setups: 3,
		make: newPlanEco,
	},
	{
		name: "plan-sharded", opsPerSecond: 7, setups: 3,
		make: newPlanSharded,
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("perfbench: unknown workload %q", name)
}

func opCount(w workloadSpec, seconds int) int {
	n := int(float64(seconds)*w.opsPerSecond + 0.5)
	if n < minOps {
		n = minOps
	}
	return n
}

// routeOp sends one /v1/route request and reports it.
func routeOp(ctx context.Context, c *cluster, i int, req *api.RouteRequest) (*api.RouteResponse, opResult) {
	r := opResult{start: time.Now()}
	resp, err := c.cli.Route(opContext(ctx, "op", i), req)
	r.end = time.Now()
	if err != nil {
		r.err = err
		return nil, r
	}
	if !resp.Cached {
		r.searched = 1
	}
	return resp, r
}

// ---- route-cold ----

type routeCold struct {
	in  *coldInputs
	chk *checker
}

func newRouteCold(seed int64, ops int, chk *checker) (workload, error) {
	in, err := genCold(seed, ops)
	if err != nil {
		return nil, err
	}
	return &routeCold{in: in, chk: chk}, nil
}

func (w *routeCold) backends() int      { return 0 }
func (w *routeCold) clients() int       { return 1 }
func (w *routeCold) ops() int           { return len(w.in.ops) }
func (w *routeCold) problems(i int) int { return 1 }

func (w *routeCold) warm(ctx context.Context, c *cluster) ([]func() error, error) {
	var checks []func() error
	for i, req := range w.in.warm {
		resp, err := c.cli.Route(opContext(ctx, "setup", i), req)
		if err != nil {
			return nil, fmt.Errorf("warm-up route %d: %w", i, err)
		}
		req, h := req, w.in.warmHashes[i]
		checks = append(checks, func() error { return w.chk.route(req, h, resp) })
	}
	return checks, nil
}

func (w *routeCold) op(ctx context.Context, c *cluster, i int) opResult {
	resp, r := routeOp(ctx, c, i, w.in.ops[i])
	if r.err == nil {
		r.check = func() error { return w.chk.route(w.in.ops[i], w.in.opsHashes[i], resp) }
	}
	return r
}

func (w *routeCold) replayWarm(rp *replayer) {
	for _, h := range w.in.warmHashes {
		rp.fill(h, h, entryBytes)
	}
}

func (w *routeCold) replay(ctx context.Context, rp *replayer, i int) error {
	return rp.route(ctx, i, w.in.ops[i])
}

// entryBytes is a typical cached answer's charge, for untimed replay fills.
const entryBytes = 4 << 10

// ---- route-hot ----

type routeHot struct {
	in   *hotInputs
	chk  *checker
	refs []answer // verified catalog answers, filled by warm's checks
}

func newRouteHot(seed int64, ops int, chk *checker) (workload, error) {
	in, err := genHot(seed, ops)
	if err != nil {
		return nil, err
	}
	return &routeHot{in: in, chk: chk, refs: make([]answer, len(in.catalog))}, nil
}

func (w *routeHot) backends() int      { return 0 }
func (w *routeHot) clients() int       { return 2 }
func (w *routeHot) ops() int           { return len(w.in.draws) }
func (w *routeHot) problems(i int) int { return 1 }

// warm routes the whole catalog once, split across the clients.
func (w *routeHot) warm(ctx context.Context, c *cluster) ([]func() error, error) {
	resps := make([]*api.RouteResponse, len(w.in.catalog))
	errs := make([]error, w.clients())
	var wg sync.WaitGroup
	for k := 0; k < w.clients(); k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(w.in.catalog); i += w.clients() {
				resp, err := c.cli.Route(opContext(ctx, "setup", i), w.in.catalog[i])
				if err != nil {
					errs[k] = fmt.Errorf("catalog route %d: %w", i, err)
					return
				}
				resps[i] = resp
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	checks := []func() error{func() error {
		for i, resp := range resps {
			if err := w.chk.route(w.in.catalog[i], w.in.hashes[i], resp); err != nil {
				return err
			}
			w.refs[i], _ = w.chk.served(w.in.hashes[i])
		}
		return nil
	}}
	return checks, nil
}

func (w *routeHot) op(ctx context.Context, c *cluster, i int) opResult {
	k := w.in.draws[i]
	resp, r := routeOp(ctx, c, i, w.in.catalog[k])
	if r.err == nil {
		r.err = w.chk.sameRoute(w.refs[k], resp)
	}
	return r
}

func (w *routeHot) replayWarm(rp *replayer) {
	for _, h := range w.in.hashes {
		rp.fill(h, h, entryBytes)
	}
}

func (w *routeHot) replay(ctx context.Context, rp *replayer, i int) error {
	return rp.route(ctx, i, w.in.catalog[w.in.draws[i]])
}

// ---- plan-eco ----

type planEco struct {
	in  *ecoInputs
	chk *checker
}

func newPlanEco(seed int64, ops int, chk *checker) (workload, error) {
	in, err := genEco(seed, ops)
	if err != nil {
		return nil, err
	}
	return &planEco{in: in, chk: chk}, nil
}

func (w *planEco) backends() int      { return 0 }
func (w *planEco) clients() int       { return 1 }
func (w *planEco) ops() int           { return len(w.in.revisions) - 1 }
func (w *planEco) problems(i int) int { return ecoNets }

// planWorkers is the plan's requested worker count: one per vCPU of the
// 2-vCPU reference host.
const planWorkers = 2

func (w *planEco) request(rev int) *api.PlanRequest {
	return &api.PlanRequest{Grid: w.in.grid, Nets: w.in.revisions[rev], Workers: planWorkers}
}

func (w *planEco) warm(ctx context.Context, c *cluster) ([]func() error, error) {
	resp, err := c.cli.Plan(opContext(ctx, "setup", 0), w.request(0))
	if err != nil {
		return nil, fmt.Errorf("initial plan: %w", err)
	}
	return []func() error{func() error {
		return w.chk.plan(&w.in.grid, w.in.revisions[0], w.in.hashes[0], resp.Nets)
	}}, nil
}

func (w *planEco) op(ctx context.Context, c *cluster, i int) opResult {
	r := opResult{start: time.Now()}
	resp, err := c.cli.Plan(opContext(ctx, "op", i), w.request(i+1))
	r.end = time.Now()
	if err != nil {
		r.err = err
		return r
	}
	r.searched = searched(resp.Nets)
	r.check = func() error { return w.chk.plan(&w.in.grid, w.in.revisions[i+1], w.in.hashes[i+1], resp.Nets) }
	return r
}

func (w *planEco) replayWarm(rp *replayer) {
	for _, h := range w.in.hashes[0] {
		rp.fill(h, h, entryBytes)
	}
}

func (w *planEco) replay(ctx context.Context, rp *replayer, i int) error {
	return rp.planBuffered(ctx, i, w.request(i+1))
}

func searched(nets []api.NetResult) int {
	n := 0
	for i := range nets {
		if !nets[i].Cached {
			n++
		}
	}
	return n
}

// ---- plan-sharded ----

type planSharded struct{ planEco }

func newPlanSharded(seed int64, ops int, chk *checker) (workload, error) {
	w, err := newPlanEco(seed, ops, chk)
	if err != nil {
		return nil, err
	}
	return &planSharded{*w.(*planEco)}, nil
}

func (w *planSharded) backends() int { return 2 }

func (w *planSharded) header() *api.PlanStreamHeader {
	return &api.PlanStreamHeader{Grid: w.in.grid, Workers: planWorkers}
}

// stream sends revision rev as NDJSON and collects the results.
func (w *planSharded) stream(ctx context.Context, c *cluster, rev int, first *time.Time) ([]api.NetResult, error) {
	results := make([]api.NetResult, 0, ecoNets)
	_, err := c.cli.PlanStream(ctx, w.header(), client.NetsFromSlice(w.in.revisions[rev]), func(nr api.NetResult) error {
		if len(results) == 0 && first != nil {
			*first = time.Now()
		}
		results = append(results, nr)
		return nil
	})
	return results, err
}

func (w *planSharded) warm(ctx context.Context, c *cluster) ([]func() error, error) {
	results, err := w.stream(opContext(ctx, "setup", 0), c, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("initial streamed plan: %w", err)
	}
	return []func() error{func() error {
		return w.chk.plan(&w.in.grid, w.in.revisions[0], w.in.hashes[0], results)
	}}, nil
}

func (w *planSharded) op(ctx context.Context, c *cluster, i int) opResult {
	r := opResult{start: time.Now()}
	results, err := w.stream(opContext(ctx, "op", i), c, i+1, &r.first)
	r.end = time.Now()
	if err != nil {
		r.err = err
		return r
	}
	r.searched = searched(results)
	r.check = func() error { return w.chk.plan(&w.in.grid, w.in.revisions[i+1], w.in.hashes[i+1], results) }
	return r
}

func (w *planSharded) replay(ctx context.Context, rp *replayer, i int) error {
	return rp.planStreamed(ctx, i, w.header(), w.in.revisions[i+1])
}
