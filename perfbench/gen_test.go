package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"clockroute/api"
	"clockroute/internal/resultcache"
)

const testOps = 40

// requestStream serializes every request a workload's inputs would send,
// in order, as the client would encode them.
func requestStream(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	must := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	cold, err := genCold(seed, testOps)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(cold.warm, cold.ops...) {
		must(r)
	}
	hot, err := genHot(seed, testOps)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hot.catalog {
		must(r)
	}
	must(hot.draws)
	eco, err := genEco(seed, testOps)
	if err != nil {
		t.Fatal(err)
	}
	for _, nets := range eco.revisions {
		must(api.PlanRequest{Grid: eco.grid, Nets: nets, Workers: planWorkers})
	}
	return buf.Bytes()
}

func TestSameSeedSameRequests(t *testing.T) {
	a, b := requestStream(t, 7), requestStream(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 produced two different request streams")
	}
	if bytes.Equal(a, requestStream(t, 8)) {
		t.Fatal("seeds 7 and 8 produced the same request stream")
	}
}

func TestColdHashesDistinct(t *testing.T) {
	in, err := genCold(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[api.ProblemHash]bool{}
	for i, req := range append(in.warm, in.ops...) {
		p, err := api.Canonicalize(req)
		if err != nil {
			t.Fatal(err)
		}
		h := p.Hash()
		if seen[h] {
			t.Fatalf("problem %d repeats an earlier canonical hash", i)
		}
		seen[h] = true
	}
}

// TestColdMix checks the stated kind mix and the blockage lists' size.
func TestColdMix(t *testing.T) {
	in, err := genCold(5, 200)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	rects := 0
	for _, req := range in.ops {
		kinds[req.Kind]++
		g := req.Grid
		rects += len(g.Obstacles) + len(g.RegisterBlockages) + len(g.WiringBlockages)
		if g.W < 32 || g.W > 64 || g.H < 32 || g.H > 64 {
			t.Fatalf("die %dx%d outside 32–64 nodes", g.W, g.H)
		}
	}
	if kinds["rbp"] != 100 || kinds["gals"] != 60 || kinds["fastpath"] != 40 {
		t.Fatalf("kind mix %v, want 50/30/20 of 200", kinds)
	}
	if avg := float64(rects) / float64(len(in.ops)); avg < 15 {
		t.Fatalf("%.1f blockage rectangles per request, want tens", avg)
	}
}

// TestHotCatalogFitsCache fills a cache configured like the server's with
// every catalog entry charged an upper bound on its response size (every
// grid node on the path); nothing may be evicted.
func TestHotCatalogFitsCache(t *testing.T) {
	in, err := genHot(11, testOps)
	if err != nil {
		t.Fatal(err)
	}
	c := resultcache.New(resultcache.Config{MaxBytes: cacheBytes})
	for i, req := range in.catalog {
		bound := int64(1024 + 32*req.Grid.W*req.Grid.H)
		c.Put(resultcache.Key(in.hashes[i]), i, bound)
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != hotCatalog {
		t.Fatalf("catalog of %d: %d entries, %d evictions", hotCatalog, st.Entries, st.Evictions)
	}
	for _, d := range in.draws {
		if d < 0 || d >= hotCatalog {
			t.Fatalf("draw %d outside the catalog", d)
		}
	}
}

func TestEcoRevisionsChangeTheirShare(t *testing.T) {
	in, err := genEco(9, testOps)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[api.ProblemHash]bool{}
	for _, h := range in.hashes[0] {
		seen[h] = true
	}
	if len(in.revisions[0]) != ecoNets || len(seen) != ecoNets {
		t.Fatalf("initial plan has %d nets, %d distinct", len(in.revisions[0]), len(seen))
	}
	for k := 1; k < len(in.revisions); k++ {
		changed := 0
		for i, h := range in.hashes[k] {
			if in.revisions[k][i].Name != in.revisions[k-1][i].Name {
				t.Fatalf("revision %d renamed net %d", k, i)
			}
			if h == in.hashes[k-1][i] {
				continue
			}
			changed++
			if seen[h] {
				t.Fatalf("revision %d redrew net %d into a problem seen before", k, i)
			}
			seen[h] = true
		}
		if changed != ecoChanged {
			t.Fatalf("revision %d changed %d of %d nets, want %d", k, changed, ecoNets, ecoChanged)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
