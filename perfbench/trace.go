package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"clockroute/api"
	"clockroute/internal/coordinator"
	"clockroute/internal/core"
	"clockroute/internal/elmore"
	"clockroute/internal/geom"
	"clockroute/internal/planner"
	"clockroute/internal/planwire"
	"clockroute/internal/resultcache"
	"clockroute/internal/tech"
)

// The traced run. It measures the workload once untraced (the baseline for
// the tracing overhead), then once more on a fresh system with a span
// around every client call and every Handler(), and finally replays each
// op's inputs through the layers' public entry points in pipeline order:
// api.Decode*, api.Canonicalize* + Problem.Hash, resultcache Get, then on
// a miss planwire.BuildGrid + core.Route (or planner.RunParallel over the
// op's cache-miss nets) and Put, and for the sharded workload
// coordinator.Plan against the same backends. The replay runs after the
// traced phase so it cannot perturb it; coordinator.Plan therefore finds
// the backends' caches warm and measures dispatch, exchange and merge.

// layerMoves names, for each per-layer metric in BENCHMARK.json, the
// end-to-end metric and workload it should move.
var layerMoves = map[string]string{
	"client.call_ms_p50":              "latency_p50_ms · all",
	"client.attempts_per_op":          "latency_p90_ms · all",
	"client.transport_ms_p50":         "latency_p50_ms · route-hot",
	"server.handler_ms_p50":           "latency_p50_ms · all",
	"server.self_ms_p50":              "latency_p50_ms, cpu_ms_per_problem · route-hot",
	"server.errors":                   "failed-op share · all",
	"api.request_kb_p50":              "decode cost · route-hot, plan-eco",
	"api.response_kb_p50":             "encode/transport cost · route-hot, plan-eco",
	"api.decode_us_p50":               "latency_p50_ms · route-hot",
	"api.canonical_us_p50":            "latency_p50_ms · route-hot; cpu_ms_per_problem · plan-eco",
	"resultcache.hit_ratio":           "latency_p50_ms, cpu_ms_per_problem · plan-eco",
	"resultcache.get_us_p50":          "latency_p50_ms · route-hot",
	"resultcache.put_us_p50":          "cpu_ms_per_problem · route-cold",
	"resultcache.evictions":           "latency_p90_ms · route-hot",
	"resultcache.bytes_mb":            "heap_live_mb · all",
	"planner.plan_ms_p50":             "latency_p50_ms · plan-eco",
	"planner.busy_ratio":              "problems_per_s, latency_p50_ms · plan-eco",
	"planner.critical_net_ms_p50":     "latency_p90_ms · plan-eco",
	"planner.searched_nets_per_op":    "cpu_ms_per_problem · plan-eco",
	"core.search_ms_p50":              "latency_p50_ms · route-cold",
	"core.search_ms_p90":              "latency_p90_ms · route-cold",
	"core.configs_per_search":         "cpu_ms_per_problem · route-cold",
	"core.configs_per_ms":             "problems_per_s · route-cold",
	"core.bound_pruned_ratio":         "cpu_ms_per_problem · route-cold",
	"core.probe_configs_per_search":   "cpu_ms_per_problem · route-cold, plan-eco",
	"coordinator.plan_ms_p50":         "latency_p50_ms · plan-sharded",
	"coordinator.first_result_ms_p50": "none gated (stream responsiveness) · plan-sharded",
	"coordinator.backend_ms_p50":      "latency_p50_ms · plan-sharded",
	"coordinator.self_ms_p50":         "latency_p50_ms · plan-sharded",
	"coordinator.backend_share_max":   "latency_p90_ms · plan-sharded",
	"coordinator.failovers":           "failed-op share · plan-sharded",
	"host.steal_s":                    "explains outlier runs · all",
	"host.cpu_util":                   "links problems_per_s to cpu_ms_per_problem · all",
	"bench.trace_overhead_pct":        "none",
}

// searchSample is one replayed search, measured from outside.
type searchSample struct {
	ms                                   float64
	configs, pushed, boundPruned, probes int
}

// planSample is one replayed planner batch.
type planSample struct {
	ms, busyMS, criticalMS float64
	workers                int
}

type replayer struct {
	tr    *tracer
	cache *resultcache.Cache
	tc    *tech.Tech
	coord *coordinator.Coordinator
	// chk, when set, holds the answers the service gave; every replayed
	// search must reproduce them (local == served, sharded == local).
	chk *checker

	searches []searchSample
	plans    []planSample
}

func newReplayer(tr *tracer, coord *coordinator.Coordinator, chk *checker) *replayer {
	return &replayer{
		tr:    tr,
		cache: resultcache.New(resultcache.Config{MaxBytes: cacheBytes}),
		tc:    tech.CongPan70nm(),
		coord: coord,
		chk:   chk,
	}
}

// reproduce checks a replayed answer against the one the service gave.
func (rp *replayer) reproduce(h api.ProblemHash, a answer) error {
	if rp.chk == nil {
		return nil
	}
	if served, ok := rp.chk.served(h); ok && served != a {
		return rp.chk.fail("problem %s: local replay answer differs from the served one", h.Hex()[:16])
	}
	return nil
}

// fill puts a set-up answer into the replay cache untimed, so the replay
// cache holds what the serving caches held when the phase began.
func (rp *replayer) fill(h api.ProblemHash, v any, size int64) {
	rp.cache.Put(resultcache.Key(h), v, size)
}

// route replays one /v1/route op.
func (rp *replayer) route(ctx context.Context, op int, req *api.RouteRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var dec *api.RouteRequest
	rp.tr.time(spanDecode, op, func() { dec, err = api.DecodeRouteRequest(bytes.NewReader(body)) })
	if err != nil {
		return err
	}
	var h api.ProblemHash
	rp.tr.time(spanCanonical, op, func() {
		var p api.Problem
		if p, err = api.Canonicalize(dec); err == nil {
			h = p.Hash()
		}
	})
	if err != nil {
		return err
	}
	var hit bool
	rp.tr.time(spanCacheGet, op, func() { _, hit = rp.cache.Get(resultcache.Key(h)) })
	if hit {
		return nil
	}
	var prob *core.Problem
	rp.tr.time(spanBuild, op, func() { prob, err = rp.problem(dec) })
	if err != nil {
		return err
	}
	kind, err := core.ParseKind(dec.Kind)
	if err != nil {
		return err
	}
	var res *core.Result
	d := rp.tr.time(spanCore, op, func() {
		res, err = core.Route(ctx, prob, core.Request{
			Kind: kind, PeriodPS: dec.PeriodPS, SrcPeriodPS: dec.SrcPeriodPS, DstPeriodPS: dec.DstPeriodPS,
		})
	})
	if err != nil {
		return err
	}
	rp.searches = append(rp.searches, searchSample{
		ms: ms(d), configs: res.Stats.Configs, pushed: res.Stats.Pushed,
		boundPruned: res.Stats.BoundPruned, probes: res.Stats.ProbeConfigs,
	})
	pts, gates := planwire.PathOnWire(res.Path, prob.Grid)
	if err := rp.reproduce(h, answerOf(res.Latency, res.Registers, res.Buffers, pts, gates)); err != nil {
		return err
	}
	size := int64(64*len(res.Path.Nodes) + 512) // about the JSON size the server charges
	rp.tr.time(spanCachePut, op, func() { rp.cache.Put(resultcache.Key(h), res, size) })
	return nil
}

func (rp *replayer) problem(req *api.RouteRequest) (*core.Problem, error) {
	g, err := planwire.BuildGrid(&req.Grid)
	if err != nil {
		return nil, err
	}
	m, err := elmore.NewModel(rp.tc, g.PitchMM())
	if err != nil {
		return nil, err
	}
	return core.NewProblem(g, m, g.ID(geom.Pt(req.Src.X, req.Src.Y)), g.ID(geom.Pt(req.Dst.X, req.Dst.Y)))
}

// plan replays one plan op from its decoded header and nets: canonical
// hashes, cache lookups, the planner batch over the misses, and fills.
func (rp *replayer) plan(ctx context.Context, op int, grid *api.GridSpec, nets []api.NetSpec, workers int) error {
	hashes := make([]api.ProblemHash, len(nets))
	for i := range nets {
		var err error
		rp.tr.time(spanCanonical, op, func() {
			var p api.Problem
			if p, err = api.CanonicalizeNet(grid, &nets[i]); err == nil {
				hashes[i] = p.Hash()
			}
		})
		if err != nil {
			return err
		}
	}
	var miss []planner.NetSpec
	var missHashes []api.ProblemHash
	for i := range nets {
		var hit bool
		rp.tr.time(spanCacheGet, op, func() { _, hit = rp.cache.Get(resultcache.Key(hashes[i])) })
		if !hit {
			miss = append(miss, planwire.SpecFromNet(&nets[i]))
			missHashes = append(missHashes, hashes[i])
		}
	}
	if len(miss) == 0 {
		return nil
	}
	var pl *planner.Planner
	var err error
	rp.tr.time(spanBuild, op, func() { pl, err = planwire.NewStreamPlanner(grid, rp.tc, nil) })
	if err != nil {
		return err
	}
	var plan *planner.Plan
	d := rp.tr.time(spanPlanner, op, func() { plan, err = pl.RunParallel(ctx, workers, miss) })
	if err != nil {
		return err
	}
	s := planSample{ms: ms(d), workers: plan.Stats.Workers}
	for i := range plan.Nets {
		n := &plan.Nets[i]
		if n.Err != nil {
			return n.Err
		}
		s.busyMS += ms(n.Elapsed)
		if e := ms(n.Elapsed); e > s.criticalMS {
			s.criticalMS = e
		}
		rp.searches = append(rp.searches, searchSample{
			ms: ms(n.Elapsed), configs: n.Stats.Configs, pushed: n.Stats.Pushed,
			boundPruned: n.Stats.BoundPruned, probes: n.Stats.ProbeConfigs,
		})
		nr := planwire.NetResultOnWire(n, plan.Grid)
		if err := rp.reproduce(missHashes[i], answerOf(nr.LatencyPS, nr.Registers, nr.Buffers, nr.Path, nr.Gates)); err != nil {
			return err
		}
		size := int64(64*len(n.Path.Nodes) + 512)
		rp.tr.time(spanCachePut, op, func() { rp.cache.Put(resultcache.Key(missHashes[i]), n, size) })
	}
	rp.plans = append(rp.plans, s)
	return nil
}

// planBuffered replays a buffered /v1/plan op.
func (rp *replayer) planBuffered(ctx context.Context, op int, req *api.PlanRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var dec *api.PlanRequest
	rp.tr.time(spanDecode, op, func() { dec, err = api.DecodePlanRequest(bytes.NewReader(body)) })
	if err != nil {
		return err
	}
	return rp.plan(ctx, op, &dec.Grid, dec.Nets, dec.Workers)
}

// planStreamed replays a streamed /v1/plan op, then coordinator.Plan.
func (rp *replayer) planStreamed(ctx context.Context, op int, hdr *api.PlanStreamHeader, nets []api.NetSpec) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // the client's own line encoding
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for i := range nets {
		if err := enc.Encode(&nets[i]); err != nil {
			return err
		}
	}
	var dh *api.PlanStreamHeader
	var dn []api.NetSpec
	var err error
	rp.tr.time(spanDecode, op, func() {
		dec := api.NewPlanStreamDecoder(bytes.NewReader(buf.Bytes()))
		if dh, err = dec.Header(); err != nil {
			return
		}
		for {
			var n *api.NetSpec
			if n, err = dec.Next(&dh.Grid); err != nil {
				break
			}
			dn = append(dn, *n)
		}
		if errors.Is(err, io.EOF) {
			err = nil
		}
	})
	if err != nil {
		return err
	}
	if err := rp.plan(ctx, op, &dh.Grid, dn, dh.Workers); err != nil {
		return err
	}
	ch := make(chan coordinator.Net, len(dn))
	for i := range dn {
		p, err := api.CanonicalizeNet(&dh.Grid, &dn[i])
		if err != nil {
			return err
		}
		ch <- coordinator.Net{Spec: dn[i], Hash: p.Hash()}
	}
	close(ch)
	var failed atomic.Int64 // emit runs on the coordinator's shard workers
	rp.tr.time(spanCoordinator, op, func() {
		rp.coord.Plan(opContext(ctx, "replay", op), dh, dh.Workers, ch, func(nr api.NetResult) {
			if nr.Error != "" {
				failed.Add(1)
			}
		})
	})
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("coordinator replay: %d nets failed", n)
	}
	return nil
}

// writeSpans writes every span as gzip-compressed TSV.
func (t *tracer) writeSpans(dir, name string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.tsv.gz", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	var t0 time.Time
	if len(t.spans) > 0 {
		t0 = t.spans[0].start
		for _, s := range t.spans {
			if s.start.Before(t0) {
				t0 = s.start
			}
		}
	}
	bw.WriteString("name\tparent\top\tidx\tstart_ns\tend_ns\tbytes_in\tbytes_out\n")
	for _, s := range t.spans {
		bw.WriteString(s.name + "\t" + spanParent[s.name] + "\t" + strconv.Itoa(s.op) + "\t" + strconv.Itoa(s.idx) + "\t" +
			strconv.FormatInt(int64(s.start.Sub(t0)), 10) + "\t" + strconv.FormatInt(int64(s.end.Sub(t0)), 10) + "\t" +
			strconv.FormatInt(s.in, 10) + "\t" + strconv.FormatInt(s.out, 10) + "\n")
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	if err := zw.Close(); err != nil {
		return "", err
	}
	return path, f.Close()
}
