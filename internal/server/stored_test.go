package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"clockroute/api"
	"clockroute/internal/faultpoint"
	"clockroute/internal/resultcache"
)

// A cache entry is the bytes its answer is served with. These tests pin
// that down from three sides: an entry planted by hand is served spliced
// and otherwise byte for byte, on every path that serves hits; every
// entry the server stores itself is exact-length and charged for its
// encoding; and a snapshot written before entries were stored as bytes
// still loads and serves what a fresh search answers.

// spliceCached is body, one RouteResponse or NetResult encoding and
// optionally its newline, with "cached":true added as its last member.
func spliceCached(body []byte) []byte {
	nl := bytes.HasSuffix(body, []byte("\n"))
	body = bytes.TrimSuffix(bytes.TrimSuffix(body, []byte("\n")), []byte("}"))
	out := append(append([]byte(nil), body...), `,"cached":true}`...)
	if nl {
		out = append(out, '\n')
	}
	return out
}

var elapsedNS = regexp.MustCompile(`"elapsed_ns":[0-9]+`)

// maskElapsed zeroes every elapsed_ns value in place of a decode, so the
// rest of the bytes are compared as they are.
func maskElapsed(b []byte) string {
	return elapsedNS.ReplaceAllString(string(b), `"elapsed_ns":0`)
}

// problemHash is the canonical hash of a /v1/route body.
func problemHash(t *testing.T, body string) api.ProblemHash {
	t.Helper()
	req, err := api.DecodeRouteRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	c, err := api.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	return c.Hash()
}

// netProblemHash is the canonical hash of one net on a plan's grid.
func netProblemHash(t *testing.T, grid api.GridSpec, netBody string) api.ProblemHash {
	t.Helper()
	var n api.NetSpec
	if err := api.Unmarshal([]byte(netBody), &n); err != nil {
		t.Fatal(err)
	}
	c, err := api.CanonicalizeNet(&grid, &n)
	if err != nil {
		t.Fatal(err)
	}
	return c.Hash()
}

// planNets returns the raw encoding of each net of a buffered plan body,
// as it went over the wire.
func planNets(t *testing.T, body []byte) []json.RawMessage {
	t.Helper()
	var pr struct {
		Nets []json.RawMessage `json:"nets"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("plan body %s: %v", body, err)
	}
	return pr.Nets
}

// postStream posts an NDJSON plan and returns its response lines, the
// trailer last.
func postStream(t *testing.T, url, header string, nets ...string) [][]byte {
	t.Helper()
	body := header + "\n" + strings.Join(nets, "\n") + "\n"
	resp, err := http.Post(url, api.ContentTypeNDJSON, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	var lines [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, append(append([]byte(nil), sc.Bytes()...), '\n'))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// checkEntries requires every entry in s's cache to be an exact-length
// slice charged its encoding's length (the entry less its envelope byte)
// plus cacheEntryOverhead.
func checkEntries(t *testing.T, s *Server, want int) {
	t.Helper()
	n := 0
	s.Cache().ForEach(func(_ resultcache.Key, v any, size int64) bool {
		n++
		b, ok := v.([]byte)
		if !ok {
			t.Errorf("entry holds a %T, want []byte", v)
			return true
		}
		if cap(b) != len(b) {
			t.Errorf("entry %.20q: cap %d, len %d", b, cap(b), len(b))
		}
		if want := int64(len(b)-1) + cacheEntryOverhead; size != want {
			t.Errorf("entry %.20q charged %d, want %d", b, size, want)
		}
		return true
	})
	if n != want {
		t.Errorf("cache holds %d entries, want %d", n, want)
	}
}

// TestHitServesStoredBytes plants entries whose bytes no encode of a
// struct produces (floats written 1e2 and 5E0) and requires each hit path
// to serve them with only the flag, and for a net the name, spliced in.
func TestHitServesStoredBytes(t *testing.T) {
	s, ts, m := newTestServer(t, cacheTestConfig())
	routeReq := routeBody(20, 20, 0.25, 500, 1, 1, 17, 15, 0)
	routeEnc := `{"latency_ps":1e2,"source_delay_ps":5E0,"registers":1,"buffers":0,` +
		`"path":[{"x":1,"y":1},{"x":2,"y":1}],"gates":["","reg"],"stats":{"configs":3,"pushed":4,` +
		`"pruned":0,"waves":1,"max_q_size":2,"elapsed_ns":7},"problem_hash":"planted"}`
	s.Cache().Put(cacheKey(problemHash(t, routeReq), cacheDomainRoute), []byte("R"+routeEnc), 1)

	grid := api.GridSpec{W: 24, H: 24, PitchMM: 0.25}
	netReq := netJSON("n<&\u2028", 1, 1, 20, 20, 500)
	netEnc := `{"name":"","mode":"rbp","latency_ps":1e2,"wire_mm":9.50,"path":[{"x":1,"y":1}],"problem_hash":"planted"}`
	s.Cache().Put(cacheKey(netProblemHash(t, grid, netReq), cacheDomainNet), []byte("N"+netEnc), 1)
	wantNet := `{"name":"n\u003c\u0026\u2028"` + netEnc[len(`{"name":""`):len(netEnc)-1] + `,"cached":true}`

	resp, body := postJSON(t, ts.URL+"/v1/route", routeReq)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("route: X-Cache %q, body %s", resp.Header.Get("X-Cache"), body)
	}
	if want := spliceCached([]byte(routeEnc + "\n")); !bytes.Equal(body, want) {
		t.Errorf("route hit:\n got %s\nwant %s", body, want)
	}

	resp, body = postJSON(t, ts.URL+"/v1/plan", planBody([]string{netReq}, ""))
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("buffered plan: X-Cache %q, body %s", resp.Header.Get("X-Cache"), body)
	}
	if want := `{"nets":[` + wantNet + `],"stats":{"workers":0,"nets_routed":1,"nets_failed":0,` +
		`"total_configs":0,"total_pushed":0,"total_pruned":0,"total_waves":0,"max_q_size":0,"elapsed_ns":0}}` + "\n"; string(body) != want {
		t.Errorf("buffered plan hit:\n got %s\nwant %s", body, want)
	}

	lines := postStream(t, ts.URL+"/v1/plan", `{"grid":{"w":24,"h":24,"pitch_mm":0.25}}`, netReq)
	if len(lines) != 2 || string(lines[0]) != wantNet+"\n" {
		t.Errorf("streamed plan hit:\n got %q\nwant %q", lines, wantNet+"\n")
	}
	if n := m.Searches.Value(); n != 0 {
		t.Errorf("planted hits ran %d searches", n)
	}
}

// TestJoinedFlightSplicesWinnerBody holds one search in flight while an
// identical request joins it: the joiner's body is the winner's with
// "cached":true spliced in.
func TestJoinedFlightSplicesWinnerBody(t *testing.T) {
	s, ts, _ := newTestServer(t, cacheTestConfig())
	if err := faultpoint.Enable("core.search", "delay:300ms@1"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()
	body := routeBody(20, 20, 0.25, 450, 2, 1, 16, 17, 0)

	type reply struct {
		xcache string
		body   []byte
	}
	replies := make([]reply, 2)
	var wg sync.WaitGroup
	post := func(i int) {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/route", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		replies[i] = reply{resp.Header.Get("X-Cache"), b}
	}
	wg.Add(2)
	go post(0)
	waitFor(t, func() bool { return s.InFlight() == 1 })
	go post(1)
	wg.Wait()

	winner, joiner := replies[0], replies[1]
	if winner.xcache == "hit" {
		winner, joiner = joiner, winner
	}
	if winner.xcache != "miss" || joiner.xcache != "hit" {
		t.Fatalf("X-Cache %q and %q, want one miss and one hit", winner.xcache, joiner.xcache)
	}
	if want := spliceCached(winner.body); !bytes.Equal(joiner.body, want) {
		t.Errorf("joined body:\n got %s\nwant %s", joiner.body, want)
	}
	checkEntries(t, s, 1)
}

// TestStoredEntriesExactLength fills the cache through every path that
// stores an entry (a route miss, buffered and streamed plan misses, a
// snapshot load) and checks every entry's shape and charge.
func TestStoredEntriesExactLength(t *testing.T) {
	dir := t.TempDir()
	cfg := cacheTestConfig()
	cfg.CacheDir = dir
	s, ts, _ := newTestServer(t, cfg)
	postJSON(t, ts.URL+"/v1/route", routeBody(20, 20, 0.25, 500, 1, 1, 17, 15, 0))
	postJSON(t, ts.URL+"/v1/plan", planBody([]string{netJSON("a", 1, 1, 20, 20, 500), netJSON("b", 2, 2, 18, 3, 500)}, ""))
	postStream(t, ts.URL+"/v1/plan", `{"grid":{"w":24,"h":24,"pitch_mm":0.25}}`, netJSON("c", 0, 5, 21, 7, 500))
	checkEntries(t, s, 4)

	if _, n, err := s.SnapshotCache(); err != nil || n != 4 {
		t.Fatalf("snapshot: %d entries, %v", n, err)
	}
	s2, _, _ := newTestServer(t, cfg)
	if n, err := s2.LoadCache(); err != nil || n != 4 {
		t.Fatalf("load: %d entries, %v", n, err)
	}
	checkEntries(t, s2, 4)
}

// The requests behind testdata/parent-cache/cache-000001.seg. Its four
// entries were written by SnapshotCache while entries were still kept as
// decoded structs (commit 381cfbf): the two routes below and the two nets
// of parentPlan. A fifth record, keyed by parentRouteBroken's route entry,
// was appended by hand with a valid CRC and the first half of that
// route's real payload, so it reaches the decoder and fails there.
const (
	parentRouteRBP    = `{"grid":{"w":24,"h":24,"pitch_mm":0.25},"kind":"rbp","period_ps":400,"src":{"x":2,"y":3},"dst":{"x":21,"y":20}}`
	parentRouteGALS   = `{"grid":{"w":20,"h":20,"pitch_mm":0.25},"kind":"gals","src_period_ps":400,"dst_period_ps":550,"src":{"x":1,"y":2},"dst":{"x":18,"y":17}}`
	parentRouteBroken = `{"grid":{"w":16,"h":16,"pitch_mm":0.25},"kind":"rbp","period_ps":500,"src":{"x":1,"y":1},"dst":{"x":14,"y":12}}`
	parentNetA        = `{"name":"a","src":{"x":1,"y":1},"dst":{"x":20,"y":20},"src_period_ps":500,"dst_period_ps":500}`
	parentNetB        = `{"name":"b","src":{"x":2,"y":2},"dst":{"x":18,"y":3},"src_period_ps":400,"dst_period_ps":550}`
	parentGrid        = `{"grid":{"w":24,"h":24,"pitch_mm":0.25}`
	parentPlan        = parentGrid + `,"nets":[` + parentNetA + `,` + parentNetB + `]}`
)

// TestParentSnapshotServesSameBytes loads a snapshot segment written by
// the parent build and requires every hit it serves, on /v1/route and on
// /v1/plan buffered and streamed, to be a cache-off server's fresh answer
// with "cached":true spliced in (elapsed_ns masked), under the same ETag.
// The hand-broken record is skipped at load and never served.
func TestParentSnapshotServesSameBytes(t *testing.T) {
	seg, err := os.ReadFile(filepath.Join("testdata", "parent-cache", "cache-000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "cache-000001.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := cacheTestConfig()
	cfg.CacheDir = dir
	s, ts, m := newTestServer(t, cfg)
	if n, err := s.LoadCache(); err != nil || n != 4 {
		t.Fatalf("load: %d entries, %v; want 4 (the broken record skipped)", n, err)
	}
	checkEntries(t, s, 4)
	_, tsOff, _ := newTestServer(t, Config{})

	for _, body := range []string{parentRouteRBP, parentRouteGALS} {
		fresh, freshBody := postJSON(t, tsOff.URL+"/v1/route", body)
		hit, hitBody := postJSON(t, ts.URL+"/v1/route", body)
		if fresh.StatusCode != http.StatusOK || hit.Header.Get("X-Cache") != "hit" {
			t.Fatalf("route %s: fresh %d, X-Cache %q", body, fresh.StatusCode, hit.Header.Get("X-Cache"))
		}
		if hit.Header.Get("ETag") != fresh.Header.Get("ETag") {
			t.Errorf("ETag %q, fresh %q", hit.Header.Get("ETag"), fresh.Header.Get("ETag"))
		}
		if got, want := maskElapsed(hitBody), maskElapsed(spliceCached(freshBody)); got != want {
			t.Errorf("route hit:\n got %s\nwant %s", got, want)
		}
	}

	_, freshPlan := postJSON(t, tsOff.URL+"/v1/plan", parentPlan)
	freshNets := planNets(t, freshPlan)
	resp, hitPlan := postJSON(t, ts.URL+"/v1/plan", parentPlan)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("plan: X-Cache %q, body %s", resp.Header.Get("X-Cache"), hitPlan)
	}
	hitNets := planNets(t, hitPlan)
	lines := postStream(t, ts.URL+"/v1/plan", parentGrid+"}", parentNetA, parentNetB)
	if len(hitNets) != 2 || len(freshNets) != 2 || len(lines) != 3 {
		t.Fatalf("%d hit nets, %d fresh nets, %d stream lines", len(hitNets), len(freshNets), len(lines))
	}
	for i, fresh := range freshNets {
		want := maskElapsed(spliceCached(fresh))
		if got := maskElapsed(hitNets[i]); got != want {
			t.Errorf("buffered net %d:\n got %s\nwant %s", i, got, want)
		}
		if got := maskElapsed(bytes.TrimSuffix(lines[i], []byte("\n"))); got != want {
			t.Errorf("streamed net %d:\n got %s\nwant %s", i, got, want)
		}
	}
	if n := m.Searches.Value(); n != 0 {
		t.Fatalf("snapshot hits ran %d searches", n)
	}

	_, freshBody := postJSON(t, tsOff.URL+"/v1/route", parentRouteBroken)
	resp, body := postJSON(t, ts.URL+"/v1/route", parentRouteBroken)
	if resp.Header.Get("X-Cache") != "miss" || m.Searches.Value() == 0 {
		t.Fatalf("broken record's problem: X-Cache %q after %d searches", resp.Header.Get("X-Cache"), m.Searches.Value())
	}
	if got, want := maskElapsed(body), maskElapsed(freshBody); got != want {
		t.Errorf("broken record's problem:\n got %s\nwant %s", got, want)
	}
}

// TestLoadServesCodecBytes loads payloads the codec would not write, a
// float as 1e2, a stored name and a stored flag, and requires the hits
// they back to serve the codec's encoding of what they decode to: a load
// keeps a re-encoding, never the segment's bytes.
func TestLoadServesCodecBytes(t *testing.T) {
	routeReq := routeBody(20, 20, 0.25, 500, 1, 1, 17, 15, 0)
	netReq := netJSON("a", 1, 1, 20, 20, 500)
	grid := api.GridSpec{W: 24, H: 24, PitchMM: 0.25}
	planted := resultcache.New(resultcache.Config{MaxBytes: 1 << 20})
	planted.Put(cacheKey(problemHash(t, routeReq), cacheDomainRoute),
		[]byte(`R{"latency_ps":1e2,"source_delay_ps":5E0,"registers":0,"buffers":0,"path":[],"gates":[],`+
			`"stats":{"configs":1,"pushed":1,"pruned":0,"waves":1,"max_q_size":1,"elapsed_ns":3},"cached":true}`), 1)
	planted.Put(cacheKey(netProblemHash(t, grid, netReq), cacheDomainNet),
		[]byte(`N{ "name" : "stale", "latency_ps":2.50e1, "cached":true }`), 1)
	dir := t.TempDir()
	if _, n, err := resultcache.SnapshotDir(dir, planted, snapshotEntry); err != nil || n != 2 {
		t.Fatalf("planting: %d records, %v", n, err)
	}

	cfg := cacheTestConfig()
	cfg.CacheDir = dir
	s, ts, _ := newTestServer(t, cfg)
	if n, err := s.LoadCache(); err != nil || n != 2 {
		t.Fatalf("load: %d entries, %v", n, err)
	}
	checkEntries(t, s, 2)
	_, body := postJSON(t, ts.URL+"/v1/route", routeReq)
	if want := `{"latency_ps":100,"source_delay_ps":5,"registers":0,"buffers":0,"path":[],"gates":[],` +
		`"stats":{"configs":1,"pushed":1,"pruned":0,"waves":1,"max_q_size":1,"elapsed_ns":3},"cached":true}` + "\n"; string(body) != want {
		t.Errorf("route hit:\n got %s\nwant %s", body, want)
	}
	_, body = postJSON(t, ts.URL+"/v1/plan", planBody([]string{netReq}, ""))
	if nets := planNets(t, body); len(nets) != 1 || string(nets[0]) != `{"name":"a","latency_ps":25,"cached":true}` {
		t.Errorf("plan hit: %s", body)
	}
}
