package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"clockroute/api"
	"clockroute/internal/faultpoint"
)

// The cache battery proves the tentpole contract differentially: a
// response served from the result cache is byte-for-byte the response a
// fresh search produces, across pooled-scratch reuse and fault-injection
// interleavings, and nothing a failed or quarantined search touched is
// ever served to a later request.

// cacheTestConfig enables a modest cache on the test server.
func cacheTestConfig() Config {
	return Config{CacheMaxBytes: 1 << 20}
}

// normalizeRoute strips the two legitimately varying fields from a route
// response body — wall-clock elapsed_ns and the cached marker — and
// re-renders with sorted keys so byte comparison is meaningful.
func normalizeRoute(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("normalize: %v (%s)", err, body)
	}
	delete(m, "cached")
	if st, ok := m["stats"].(map[string]any); ok {
		delete(st, "elapsed_ns")
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// normalizeNets does the same for a plan response's per-net results
// (batch aggregate stats legitimately differ when nets come from cache).
func normalizeNets(t *testing.T, body []byte) string {
	t.Helper()
	var m struct {
		Nets []map[string]any `json:"nets"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("normalize: %v (%s)", err, body)
	}
	for _, n := range m.Nets {
		delete(n, "cached")
		delete(n, "elapsed_ns")
	}
	out, err := json.Marshal(m.Nets)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestRouteCacheWarmHit(t *testing.T) {
	s, ts, m := newTestServer(t, cacheTestConfig())
	body := routeBody(32, 32, 0.25, 500, 1, 1, 30, 30, 0)

	resp1, b1 := postJSON(t, ts.URL+"/v1/route", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("miss: %d %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache=%q, want miss", got)
	}
	searchesAfterMiss := m.Searches.Value()
	if searchesAfterMiss < 1 {
		t.Fatal("no search ran on a cold miss")
	}

	resp2, b2 := postJSON(t, ts.URL+"/v1/route", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("hit: %d %s", resp2.StatusCode, b2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache=%q, want hit", got)
	}
	// The warm hit must not have entered the search kernel at all.
	if got := m.Searches.Value(); got != searchesAfterMiss {
		t.Fatalf("warm hit ran a search: %d -> %d", searchesAfterMiss, got)
	}
	if norm1, norm2 := normalizeRoute(t, b1), normalizeRoute(t, b2); norm1 != norm2 {
		t.Fatalf("cached response differs from fresh:\nfresh:  %s\ncached: %s", norm1, norm2)
	}

	var rr1, rr2 api.RouteResponse
	json.Unmarshal(b1, &rr1)
	json.Unmarshal(b2, &rr2)
	if rr1.Cached || !rr2.Cached {
		t.Fatalf("cached flags: fresh=%v hit=%v", rr1.Cached, rr2.Cached)
	}
	if len(rr1.ProblemHash) != 64 || rr1.ProblemHash != rr2.ProblemHash {
		t.Fatalf("problem hashes: %q vs %q", rr1.ProblemHash, rr2.ProblemHash)
	}
	wantETag := `"` + rr1.ProblemHash + `"`
	if resp1.Header.Get("ETag") != wantETag || resp2.Header.Get("ETag") != wantETag {
		t.Fatalf("ETags %q/%q, want %q", resp1.Header.Get("ETag"), resp2.Header.Get("ETag"), wantETag)
	}
	if s.Cache().Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", s.Cache().Len())
	}
	if m.CacheHits.Value() != 1 || m.CacheMisses.Value() != 1 {
		t.Fatalf("telemetry hits/misses = %d/%d, want 1/1",
			m.CacheHits.Value(), m.CacheMisses.Value())
	}
}

// TestRouteCacheDifferential is the core bit-identity proof: a cache-on
// server's responses (cold miss and warm hits alike) must match a
// cache-off server routing the same problem repeatedly, across enough
// iterations to recycle pooled search scratch.
func TestRouteCacheDifferential(t *testing.T) {
	_, tsOn, _ := newTestServer(t, cacheTestConfig())
	_, tsOff, _ := newTestServer(t, Config{})
	body := routeBody(24, 24, 0.25, 400, 2, 3, 21, 20, 0)

	var want string
	for i := 0; i < 6; i++ {
		resp, b := postJSON(t, tsOff.URL+"/v1/route", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("uncached iter %d: %d %s", i, resp.StatusCode, b)
		}
		norm := normalizeRoute(t, b)
		if i == 0 {
			want = norm
		} else if norm != want {
			t.Fatalf("uncached server is nondeterministic at iter %d", i)
		}
	}
	for i := 0; i < 6; i++ {
		resp, b := postJSON(t, tsOn.URL+"/v1/route", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cached iter %d: %d %s", i, resp.StatusCode, b)
		}
		if norm := normalizeRoute(t, b); norm != want {
			t.Fatalf("cache-on response diverges at iter %d (X-Cache=%s):\nwant %s\ngot  %s",
				i, resp.Header.Get("X-Cache"), want, norm)
		}
	}
}

func TestRouteCacheModes(t *testing.T) {
	s, ts, m := newTestServer(t, cacheTestConfig())
	withMode := func(mode string) string {
		body := routeBody(16, 16, 0.25, 500, 1, 1, 14, 14, 0)
		return strings.TrimSuffix(body, "}") + fmt.Sprintf(`,"cache":{"mode":%q}}`, mode)
	}

	// bypass: never reads, never fills.
	for i := 0; i < 2; i++ {
		resp, b := postJSON(t, ts.URL+"/v1/route", withMode("bypass"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bypass: %d %s", resp.StatusCode, b)
		}
		if resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("bypass iter %d reported a hit", i)
		}
	}
	if s.Cache().Len() != 0 {
		t.Fatal("bypass filled the cache")
	}
	if m.Searches.Value() != 2 {
		t.Fatalf("bypass ran %d searches, want 2", m.Searches.Value())
	}

	// default fills; a later default hits without searching.
	postJSON(t, ts.URL+"/v1/route", withMode("default"))
	base := m.Searches.Value()
	resp, _ := postJSON(t, ts.URL+"/v1/route", withMode("default"))
	if resp.Header.Get("X-Cache") != "hit" || m.Searches.Value() != base {
		t.Fatal("default mode did not serve the warm entry")
	}

	// refresh recomputes even though the entry exists, then refills. It
	// makes no lookup, so it counts no miss.
	misses := m.CacheMisses.Value()
	resp, _ = postJSON(t, ts.URL+"/v1/route", withMode("refresh"))
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatal("refresh served the stale entry")
	}
	if m.Searches.Value() != base+1 {
		t.Fatalf("refresh ran %d searches, want %d", m.Searches.Value(), base+1)
	}
	if n := m.CacheMisses.Value() - misses; n != 0 {
		t.Errorf("refresh counted %d cache misses, want none", n)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/route", withMode("default"))
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("refresh did not refill the cache")
	}

	// Unknown modes are a strict-decode failure, not a silent default.
	resp, b := postJSON(t, ts.URL+"/v1/route", withMode("sideways"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown mode: %d %s", resp.StatusCode, b)
	}
}

// TestRouteConditional304 exercises the If-None-Match path. The ETag is
// the problem's content address and routing is deterministic, so
// revalidation succeeds even on a cache-disabled server.
func TestRouteConditional304(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cache-on", cacheTestConfig()},
		{"cache-off", Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts, _ := newTestServer(t, tc.cfg)
			body := routeBody(16, 16, 0.25, 500, 0, 0, 15, 15, 0)

			resp, b := postJSON(t, ts.URL+"/v1/route", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("prime: %d %s", resp.StatusCode, b)
			}
			etag := resp.Header.Get("ETag")
			if etag == "" {
				t.Fatal("no ETag on route response")
			}

			// RFC 9110 forms that must all revalidate: the exact tag, the
			// tag inside a comma-separated list, a weak-prefixed tag, and
			// the wildcard.
			for _, inm := range []string{
				etag,
				`"deadbeef", ` + etag + `, "cafebabe"`,
				"W/" + etag,
				"*",
			} {
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/route", strings.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("If-None-Match", inm)
				cond, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer cond.Body.Close()
				if cond.StatusCode != http.StatusNotModified {
					t.Fatalf("revalidation with %q: %d, want 304", inm, cond.StatusCode)
				}
				if cond.Header.Get("X-Cache") != "hit" || cond.Header.Get("ETag") != etag {
					t.Fatalf("304 headers with %q: X-Cache=%q ETag=%q", inm, cond.Header.Get("X-Cache"), cond.Header.Get("ETag"))
				}
			}

			// A stale tag must re-route in full.
			req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/route", strings.NewReader(body))
			req2.Header.Set("Content-Type", "application/json")
			req2.Header.Set("If-None-Match", `"deadbeef"`)
			full, err := http.DefaultClient.Do(req2)
			if err != nil {
				t.Fatal(err)
			}
			defer full.Body.Close()
			if full.StatusCode != http.StatusOK {
				t.Fatalf("stale tag: %d, want 200", full.StatusCode)
			}
		})
	}
}

// TestChaosPanicNeverPoisonsCache arms a mid-search panic, proves the
// request fails without filling the cache, then disarms and proves the
// next identical request routes fresh and matches the undisturbed answer.
func TestChaosPanicNeverPoisonsCache(t *testing.T) {
	s, ts, m := newTestServer(t, cacheTestConfig())
	body := routeBody(24, 24, 0.25, 500, 1, 1, 22, 22, 0)

	// Undisturbed baseline from a separate cache-off server.
	_, tsOff, _ := newTestServer(t, Config{})
	respBase, bBase := postJSON(t, tsOff.URL+"/v1/route", body)
	if respBase.StatusCode != http.StatusOK {
		t.Fatalf("baseline: %d %s", respBase.StatusCode, bBase)
	}
	want := normalizeRoute(t, bBase)

	if err := faultpoint.Enable("core.wave_push", "panic@3"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()
	resp, b := postJSON(t, ts.URL+"/v1/route", body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected panic: %d %s", resp.StatusCode, b)
	}
	if s.Cache().Len() != 0 {
		t.Fatal("panicked search filled the cache")
	}
	faultpoint.Reset()

	resp, b = postJSON(t, ts.URL+"/v1/route", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("post-chaos request: %d X-Cache=%s", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if got := normalizeRoute(t, b); got != want {
		t.Fatalf("post-chaos response diverges from undisturbed baseline:\nwant %s\ngot  %s", want, got)
	}
	// And the healthy result is now cached.
	resp, _ = postJSON(t, ts.URL+"/v1/route", body)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("healthy result was not cached after chaos cleared")
	}
	// An injected error (not panic) must behave the same: no fill.
	if err := faultpoint.Enable("core.search", "error"); err != nil {
		t.Fatal(err)
	}
	other := routeBody(24, 24, 0.25, 600, 1, 1, 22, 22, 0)
	resp, _ = postJSON(t, ts.URL+"/v1/route", other)
	if resp.StatusCode == http.StatusOK {
		t.Fatal("injected error returned 200")
	}
	if s.Cache().Len() != 1 {
		t.Fatalf("failed search changed the cache: %d entries", s.Cache().Len())
	}
	_ = m
}

// planBody builds a /v1/plan request over an equal-period (rbp) net list.
func planBody(nets []string, cacheMode string) string {
	b := `{"grid":{"w":24,"h":24,"pitch_mm":0.25},"nets":[` + strings.Join(nets, ",") + `]`
	if cacheMode != "" {
		b += fmt.Sprintf(`,"cache":{"mode":%q}`, cacheMode)
	}
	return b + "}"
}

func netJSON(name string, sx, sy, dx, dy int, period float64) string {
	return fmt.Sprintf(`{"name":%q,"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d},"src_period_ps":%g,"dst_period_ps":%g}`,
		name, sx, sy, dx, dy, period, period)
}

// TestPlanRepeatedNetsCached proves per-net caching across batches: nets
// already solved (under any name) come from the cache, only novel nets
// are routed, and a fully warm batch runs zero searches.
func TestPlanRepeatedNetsCached(t *testing.T) {
	_, ts, m := newTestServer(t, cacheTestConfig())
	_, tsOff, _ := newTestServer(t, Config{})

	n1 := netJSON("a", 1, 1, 20, 20, 500)
	n2 := netJSON("b", 2, 2, 18, 3, 500)
	n3 := netJSON("c", 0, 5, 21, 7, 500)
	n4 := netJSON("d", 3, 0, 9, 22, 500)

	// Batch 1 primes two nets.
	resp, b := postJSON(t, ts.URL+"/v1/plan", planBody([]string{n1, n2}, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch1: %d %s", resp.StatusCode, b)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatal("cold batch reported a hit")
	}

	// Batch 2: 50% repeated (renamed to prove names are not part of the
	// address), 50% novel.
	renamed1 := netJSON("a2", 1, 1, 20, 20, 500)
	renamed2 := netJSON("b2", 2, 2, 18, 3, 500)
	searchesBefore := m.Searches.Value()
	resp, b = postJSON(t, ts.URL+"/v1/plan", planBody([]string{renamed1, n3, renamed2, n4}, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch2: %d %s", resp.StatusCode, b)
	}
	var pr api.PlanResponse
	if err := json.Unmarshal(b, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Nets) != 4 {
		t.Fatalf("%d nets in response", len(pr.Nets))
	}
	wantCached := map[string]bool{"a2": true, "c": false, "b2": true, "d": false}
	for i, want := range []string{"a2", "c", "b2", "d"} {
		n := pr.Nets[i]
		if n.Name != want {
			t.Fatalf("net %d is %q, want %q (request order lost)", i, n.Name, want)
		}
		if n.Cached != wantCached[want] {
			t.Fatalf("net %q cached=%v, want %v", n.Name, n.Cached, wantCached[want])
		}
		if len(n.ProblemHash) != 64 {
			t.Fatalf("net %q problem_hash %q", n.Name, n.ProblemHash)
		}
		if n.Error != "" {
			t.Fatalf("net %q failed: %s", n.Name, n.Error)
		}
	}
	if pr.Stats.NetsRouted != 4 {
		t.Fatalf("nets_routed=%d, want 4", pr.Stats.NetsRouted)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatal("partially cached batch must report miss")
	}
	if m.Searches.Value() <= searchesBefore {
		t.Fatal("novel nets did not search")
	}

	// Batch 3 repeats batch 2 exactly: fully warm, zero searches.
	searchesBefore = m.Searches.Value()
	resp, b2 := postJSON(t, ts.URL+"/v1/plan", planBody([]string{renamed1, n3, renamed2, n4}, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch3: %d %s", resp.StatusCode, b2)
	}
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("fully warm batch must report hit")
	}
	if m.Searches.Value() != searchesBefore {
		t.Fatal("warm batch ran searches")
	}

	// Differential: the warm batch's nets must match a cache-off server
	// routing the same batch fresh.
	respOff, bOff := postJSON(t, tsOff.URL+"/v1/plan", planBody([]string{renamed1, n3, renamed2, n4}, ""))
	if respOff.StatusCode != http.StatusOK {
		t.Fatalf("cache-off batch: %d %s", respOff.StatusCode, bOff)
	}
	if got, want := normalizeNets(t, b2), normalizeNets(t, bOff); got != want {
		t.Fatalf("warm plan diverges from fresh:\nfresh: %s\nwarm:  %s", want, got)
	}
}

// TestPlanRetriedNetNotCached: a net whose first attempt panicked is
// healed by the planner's retry, but nothing that passed through a
// quarantined search may enter the cache.
func TestPlanRetriedNetNotCached(t *testing.T) {
	s, ts, _ := newTestServer(t, cacheTestConfig())
	if err := faultpoint.Enable("core.wave_push", "panic@3"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()

	resp, b := postJSON(t, ts.URL+"/v1/plan", planBody([]string{netJSON("a", 1, 1, 20, 20, 500)}, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan under chaos: %d %s", resp.StatusCode, b)
	}
	var pr api.PlanResponse
	if err := json.Unmarshal(b, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Nets[0].Error != "" {
		t.Fatalf("retry did not heal the net: %s", pr.Nets[0].Error)
	}
	if s.Cache().Len() != 0 {
		t.Fatal("retried net entered the cache")
	}
	faultpoint.Reset()

	// The next identical batch must route fresh (miss) and then cache.
	resp, _ = postJSON(t, ts.URL+"/v1/plan", planBody([]string{netJSON("a", 1, 1, 20, 20, 500)}, ""))
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatal("uncached net served as hit")
	}
	if s.Cache().Len() != 1 {
		t.Fatal("clean rerun did not cache")
	}
}

// TestCacheSnapshotLoadRoundTrip proves a snapshot survives a restart: a
// second server loading the segment serves the first server's response
// without ever searching.
func TestCacheSnapshotLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := cacheTestConfig()
	cfg.CacheDir = dir
	_, ts1, _ := newTestServer(t, cfg)
	body := routeBody(32, 32, 0.25, 500, 1, 1, 30, 30, 0)

	resp, bFresh := postJSON(t, ts1.URL+"/v1/route", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: %d %s", resp.StatusCode, bFresh)
	}
	resp, b := postJSON(t, ts1.URL+"/v1/cache/snapshot", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d %s", resp.StatusCode, b)
	}
	var snap struct {
		File    string `json:"file"`
		Entries int    `json:"entries"`
	}
	if err := json.Unmarshal(b, &snap); err != nil || snap.Entries != 1 {
		t.Fatalf("snapshot reply %s (err=%v)", b, err)
	}

	// "Restart": a brand-new server over the same directory.
	_, ts2, m2 := newTestServer(t, cfg)
	resp, b = postJSON(t, ts2.URL+"/v1/cache/load", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %s", resp.StatusCode, b)
	}
	resp, bWarm := postJSON(t, ts2.URL+"/v1/route", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("post-restart: %d X-Cache=%s", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if m2.Searches.Value() != 0 {
		t.Fatalf("restarted server ran %d searches for a snapshotted problem", m2.Searches.Value())
	}
	if got, want := normalizeRoute(t, bWarm), normalizeRoute(t, bFresh); got != want {
		t.Fatalf("snapshot round-trip altered the response:\nfresh: %s\nwarm:  %s", want, got)
	}
}

func TestCacheAdminEndpoints(t *testing.T) {
	// Disabled cache: stats says so, snapshot/load refuse.
	_, tsOff, _ := newTestServer(t, Config{})
	resp, b := postJSON(t, tsOff.URL+"/v1/cache/snapshot", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("snapshot on disabled cache: %d %s", resp.StatusCode, b)
	}
	r2, err := http.Get(tsOff.URL + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(r2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["enabled"] != false {
		t.Fatalf("stats %v, want enabled=false", stats)
	}

	// Enabled but directory-less: snapshot refuses, stats report state.
	s, tsOn, _ := newTestServer(t, cacheTestConfig())
	postJSON(t, tsOn.URL+"/v1/route", routeBody(16, 16, 0.25, 500, 1, 1, 14, 14, 0))
	resp, b = postJSON(t, tsOn.URL+"/v1/cache/snapshot", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("snapshot without dir: %d %s", resp.StatusCode, b)
	}
	r3, err := http.Get(tsOn.URL + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	if err := json.NewDecoder(r3.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["enabled"] != true || stats["entries"] != float64(s.Cache().Len()) {
		t.Fatalf("stats %v", stats)
	}

	// Per-shard occupancy and the windowed hit rate ride along.
	shards, ok := stats["shards"].([]any)
	if !ok || len(shards) == 0 {
		t.Fatalf("stats missing per-shard breakdown: %v", stats["shards"])
	}
	var entries float64
	for _, sh := range shards {
		entries += sh.(map[string]any)["entries"].(float64)
	}
	if entries != float64(s.Cache().Len()) {
		t.Errorf("shard entries sum %v != cache len %d", entries, s.Cache().Len())
	}
	window, ok := stats["window"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing window: %v", stats)
	}
	// The one route above was a miss; rate over the window is 0 of 1.
	if window["misses"] != 1.0 || window["hit_rate"] != 0.0 {
		t.Errorf("window = %v, want 1 miss, rate 0", window)
	}
}
