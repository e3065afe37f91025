package main

import (
	"context"
	"fmt"
	"time"
)

// runTraced is the --trace 1 run: an untraced phase for the overhead
// baseline, a traced phase on a fresh system, the replay, and the
// per-layer metrics.
func runTraced(ctx context.Context, spec workloadSpec, w workload, chk *checker, seed int64, spansDir string) (*result, error) {
	bf, err := loadBenchmark()
	if err != nil {
		return nil, err
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	c, _, err := setUp(ctx, w, seed, 1, nil, cal)
	if err != nil {
		return nil, err
	}
	base := measure(ctx, w, c, cal)
	c.close()

	tr := &tracer{}
	c, _, err = setUp(ctx, w, seed, 1, tr, cal)
	if err != nil {
		return nil, err
	}
	p := measure(ctx, w, c, cal)
	p.report()
	for i, r := range p.results {
		tr.add(span{name: spanClient, op: i, start: r.start, end: r.end})
	}
	rp := newReplayer(tr, c.coord, chk)
	w.replayWarm(rp)
	for i := range p.results {
		start := time.Now()
		err := w.replay(ctx, rp, i)
		tr.add(span{name: spanReplay, op: i, start: start, end: time.Now()})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("replay of op %d: %w", i, err)
		}
	}
	c.close()
	if cal.err != nil {
		return nil, cal.err
	}

	v := layerValues(p, base, tr, rp)
	fmt.Println(timeShares(tr))
	fmt.Println("per-layer metrics (value unit · the end-to-end metric and workload each should move):")
	m := make(map[string]metric, len(bf.PerLayer))
	for _, lm := range bf.PerLayer {
		x, ok := v[lm.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %q in BENCHMARK.json is not measured", lm.Name)
		}
		m[lm.Name] = metric{Value: x, Unit: lm.Unit}
		fmt.Printf("  %-32s %12.6g %-6s · %s\n", lm.Name, x, lm.Unit, layerMoves[lm.Name])
	}
	if path, err := tr.writeSpans(spansDir, spec.name, seed); err != nil {
		fmt.Println("spans not written:", err)
	} else {
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	}
	return &result{Attempted: len(base.results) + len(p.results), Failed: base.failed() + p.failed(), Metrics: m}, nil
}

// layerValues derives every per-layer metric by name; a layer the workload
// does not reach reads 0.
func layerValues(p, base *phase, tr *tracer, rp *replayer) map[string]float64 {
	n := len(p.results)
	byOp := make([]map[string][]span, n)
	for i := range byOp {
		byOp[i] = map[string][]span{}
	}
	for _, s := range tr.spans {
		if s.op >= 0 && s.op < n {
			byOp[s.op][s.name] = append(byOp[s.op][s.name], s)
		}
	}
	sum := func(ss []span) float64 {
		t := 0.0
		for _, s := range ss {
			t += s.ms()
		}
		return t
	}
	longest := func(ss []span) float64 {
		t := 0.0
		for _, s := range ss {
			t = max(t, s.ms())
		}
		return t
	}
	var client, transport, handler, self, reqKB, respKB, decodeUS, coordMS, firstMS, backendMS, coordSelf []float64
	var canonUS, getUS, putUS []float64
	for i, r := range p.results {
		sp := byOp[i]
		cl := ms(r.end.Sub(r.start))
		client = append(client, cl)
		front := sum(sp[spanFront])
		if len(sp[spanFront]) > 0 {
			f := sp[spanFront][0]
			handler = append(handler, front)
			transport = append(transport, cl-front)
			reqKB = append(reqKB, float64(f.in)/1024)
			respKB = append(respKB, float64(f.out)/1024)
		}
		replayed := sum(sp[spanDecode]) + sum(sp[spanCanonical]) + sum(sp[spanCacheGet]) +
			sum(sp[spanBuild]) + sum(sp[spanCore]) + sum(sp[spanPlanner]) + sum(sp[spanCachePut])
		if be := sp[spanBackend]; len(be) > 0 {
			// Behind a coordinator the front waits on its backends, not on
			// a local search.
			replayed = sum(sp[spanDecode]) + sum(sp[spanCanonical]) + longest(be)
			backendMS = append(backendMS, longest(be))
			coordSelf = append(coordSelf, front-longest(be))
		}
		self = append(self, front-replayed)
		if d := sp[spanDecode]; len(d) > 0 {
			decodeUS = append(decodeUS, sum(d)*1000)
		}
		for _, s := range sp[spanCanonical] {
			canonUS = append(canonUS, s.ms()*1000)
		}
		for _, s := range sp[spanCacheGet] {
			getUS = append(getUS, s.ms()*1000)
		}
		for _, s := range sp[spanCachePut] {
			putUS = append(putUS, s.ms()*1000)
		}
		if c := sp[spanCoordinator]; len(c) > 0 {
			coordMS = append(coordMS, sum(c))
		}
		if !r.first.IsZero() {
			firstMS = append(firstMS, ms(r.first.Sub(r.start)))
		}
	}

	var searchMS []float64
	var configs, pushed, boundPruned, probes float64
	for _, s := range rp.searches {
		searchMS = append(searchMS, s.ms)
		configs += float64(s.configs)
		pushed += float64(s.pushed)
		boundPruned += float64(s.boundPruned)
		probes += float64(s.probes)
	}
	searchTotal := 0.0
	for _, x := range searchMS {
		searchTotal += x
	}
	var planMS, criticalMS []float64
	var busy, capacity float64
	for _, s := range rp.plans {
		planMS = append(planMS, s.ms)
		criticalMS = append(criticalMS, s.criticalMS)
		busy += s.busyMS
		capacity += s.ms * float64(s.workers)
	}
	searchedPerOp := 0.0
	for _, r := range p.results {
		searchedPerOp += float64(r.searched)
	}
	searchedPerOp /= float64(n)

	cb, ca := p.cBefore, p.cAfter
	hits, misses := float64(ca.hits-cb.hits), float64(ca.misses-cb.misses)
	shareMax, lookups := 0.0, 0.0
	for i := range ca.perBackendLookups {
		lookups += float64(ca.perBackendLookups[i] - cb.perBackendLookups[i])
	}
	if len(ca.perBackendLookups) > 1 && lookups > 0 {
		for i := range ca.perBackendLookups {
			shareMax = max(shareMax, float64(ca.perBackendLookups[i]-cb.perBackendLookups[i])/lookups)
		}
	}

	baseP50 := percentile(base.latenciesMS(true), 0.5)
	tracedP50 := percentile(p.latenciesMS(true), 0.5)
	return map[string]float64{
		"client.call_ms_p50":              percentile(client, 0.5),
		"client.attempts_per_op":          float64(ca.attempts-cb.attempts) / float64(n),
		"client.transport_ms_p50":         percentile(transport, 0.5),
		"server.handler_ms_p50":           percentile(handler, 0.5),
		"server.self_ms_p50":              percentile(self, 0.5),
		"server.errors":                   float64(ca.requestErrors - cb.requestErrors + ca.shed - cb.shed),
		"api.request_kb_p50":              percentile(reqKB, 0.5),
		"api.response_kb_p50":             percentile(respKB, 0.5),
		"api.decode_us_p50":               percentile(decodeUS, 0.5),
		"api.canonical_us_p50":            percentile(canonUS, 0.5),
		"resultcache.hit_ratio":           ratio(hits, hits+misses),
		"resultcache.get_us_p50":          percentile(getUS, 0.5),
		"resultcache.put_us_p50":          percentile(putUS, 0.5),
		"resultcache.evictions":           float64(ca.evictions - cb.evictions),
		"resultcache.bytes_mb":            float64(p.cacheBytes) / (1 << 20),
		"planner.plan_ms_p50":             percentile(planMS, 0.5),
		"planner.busy_ratio":              ratio(busy, capacity),
		"planner.critical_net_ms_p50":     percentile(criticalMS, 0.5),
		"planner.searched_nets_per_op":    searchedPerOp,
		"core.search_ms_p50":              percentile(append([]float64(nil), searchMS...), 0.5),
		"core.search_ms_p90":              percentile(searchMS, 0.9),
		"core.configs_per_search":         ratio(configs, float64(len(searchMS))),
		"core.configs_per_ms":             ratio(configs, searchTotal),
		"core.bound_pruned_ratio":         ratio(boundPruned, pushed+boundPruned),
		"core.probe_configs_per_search":   ratio(probes, float64(len(searchMS))),
		"coordinator.plan_ms_p50":         percentile(coordMS, 0.5),
		"coordinator.first_result_ms_p50": percentile(firstMS, 0.5),
		"coordinator.backend_ms_p50":      percentile(backendMS, 0.5),
		"coordinator.self_ms_p50":         percentile(coordSelf, 0.5),
		"coordinator.backend_share_max":   shareMax,
		"coordinator.failovers":           float64(ca.failovers - cb.failovers + ca.degraded - cb.degraded),
		"host.steal_s":                    p.steal(),
		"host.cpu_util":                   p.cpuUtil(),
		"bench.trace_overhead_pct":        100 * (ratio(tracedP50, baseP50) - 1),
	}
}

// timeShares reports each replayed layer's total time as a share of the
// total client op time: where an op's time goes.
func timeShares(tr *tracer) string {
	total := map[string]float64{}
	for _, s := range tr.spans {
		total[s.name] += s.ms()
	}
	out := "op time shares:"
	for _, name := range []string{spanFront, spanDecode, spanCanonical, spanCacheGet, spanBuild, spanCore, spanPlanner, spanCachePut, spanCoordinator} {
		out += fmt.Sprintf(" %s %.1f%%", name, 100*ratio(total[name], total[spanClient]))
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
