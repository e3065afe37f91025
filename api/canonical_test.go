package api

import (
	"strings"
	"testing"
)

// validCanonRoute is a baseline request covering every canonicalization rule:
// unordered corners, unsorted lists, duplicates, empties, and rects
// hanging off the grid.
func validCanonRoute() *RouteRequest {
	return &RouteRequest{
		Grid: GridSpec{
			W: 32, H: 32, PitchMM: 0.25,
			Obstacles: []Rect{
				{X0: 20, Y0: 20, X1: 10, Y1: 10}, // reversed corners
				{X0: 2, Y0: 2, X1: 4, Y1: 4},
				{X0: 2, Y0: 2, X1: 4, Y1: 4},     // duplicate
				{X0: 5, Y0: 5, X1: 5, Y1: 9},     // empty (x0==x1)
				{X0: 30, Y0: 30, X1: 99, Y1: 99}, // clipped to grid
			},
			RegisterBlockages: []Rect{{X0: 8, Y0: 0, X1: 12, Y1: 3}},
		},
		Kind:      "rbp",
		PeriodPS:  500,
		Src:       Point{X: 1, Y: 1},
		Dst:       Point{X: 30, Y: 30},
		TimeoutMS: 250,
	}
}

func mustHash(t *testing.T, req *RouteRequest) ProblemHash {
	t.Helper()
	p, err := Canonicalize(req)
	if err != nil {
		t.Fatalf("Canonicalize: %v", err)
	}
	return p.Hash()
}

func TestCanonicalizeNormalizesGrid(t *testing.T) {
	base := mustHash(t, validCanonRoute())

	// Corner order, list order, duplicates, empties, and off-grid spill
	// are all non-semantic: the hash must not move.
	reordered := validCanonRoute()
	reordered.Grid.Obstacles = []Rect{
		{X0: 4, Y0: 4, X1: 2, Y1: 2},     // dedup target, corners flipped
		{X0: 30, Y0: 30, X1: 32, Y1: 32}, // pre-clipped form of the spill rect
		{X0: 10, Y0: 20, X1: 20, Y1: 10}, // mixed corner order
	}
	if got := mustHash(t, reordered); got != base {
		t.Fatalf("hash moved under rect normalization: %s vs %s", got, base)
	}

	// Semantic changes must move it.
	for name, mut := range map[string]func(*RouteRequest){
		"period":   func(r *RouteRequest) { r.PeriodPS = 600 },
		"grid":     func(r *RouteRequest) { r.Grid.W = 33 },
		"pitch":    func(r *RouteRequest) { r.Grid.PitchMM = 0.5 },
		"endpoint": func(r *RouteRequest) { r.Dst = Point{X: 29, Y: 30} },
		"obstacle": func(r *RouteRequest) { r.Grid.Obstacles = r.Grid.Obstacles[:1] },
		"budget":   func(r *RouteRequest) { r.MaxConfigs = 1000 },
		"blockage kind": func(r *RouteRequest) {
			r.Grid.WiringBlockages = r.Grid.RegisterBlockages
			r.Grid.RegisterBlockages = nil
		},
	} {
		req := validCanonRoute()
		mut(req)
		if got := mustHash(t, req); got == base {
			t.Errorf("%s change did not move the hash", name)
		}
	}
}

func TestCanonicalizeStripsNonSemanticFields(t *testing.T) {
	base := mustHash(t, validCanonRoute())
	for name, mut := range map[string]func(*RouteRequest){
		"timeout":      func(r *RouteRequest) { r.TimeoutMS = 0 },
		"cache block":  func(r *RouteRequest) { r.Cache = &CacheOptions{Mode: CacheModeBypass} },
		"cache empty":  func(r *RouteRequest) { r.Cache = &CacheOptions{} },
		"gals periods": func(r *RouteRequest) { r.SrcPeriodPS, r.DstPeriodPS = 123, 456 }, // unused by rbp
	} {
		req := validCanonRoute()
		mut(req)
		if got := mustHash(t, req); got != base {
			t.Errorf("%s is non-semantic but moved the hash", name)
		}
	}

	// The inverse for GALS: period_ps is rbp-only noise.
	gals := validCanonRoute()
	gals.Kind, gals.PeriodPS = "gals", 0
	gals.SrcPeriodPS, gals.DstPeriodPS = 400, 650
	g1 := mustHash(t, gals)
	noisy := validCanonRoute()
	noisy.Kind, noisy.PeriodPS = "gals", 777
	noisy.SrcPeriodPS, noisy.DstPeriodPS = 400, 650
	if g2 := mustHash(t, noisy); g2 != g1 {
		t.Fatalf("rbp-only fields moved a gals hash: %s vs %s", g2, g1)
	}
}

func TestCanonicalizeRejectsInvalid(t *testing.T) {
	req := validCanonRoute()
	req.Kind = "quantum"
	if _, err := Canonicalize(req); err == nil {
		t.Fatal("unknown kind accepted")
	}
	req = validCanonRoute()
	req.Src = req.Dst
	if _, err := Canonicalize(req); err == nil {
		t.Fatal("src==dst accepted")
	}
}

func TestCanonicalizeNet(t *testing.T) {
	grid := &GridSpec{W: 32, H: 32, PitchMM: 0.25}
	rbpNet := &NetSpec{Name: "a", Src: Point{X: 1, Y: 1}, Dst: Point{X: 30, Y: 30}, SrcPeriodPS: 500, DstPeriodPS: 500}
	p, err := CanonicalizeNet(grid, rbpNet)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != "rbp" || p.PeriodPS != 500 || p.SrcPeriodPS != 0 {
		t.Fatalf("equal-period net canonicalized to %+v, want rbp@500", p)
	}

	// The name is not part of the problem: same geometry, different name,
	// same hash.
	renamed := *rbpNet
	renamed.Name = "b"
	p2, _ := CanonicalizeNet(grid, &renamed)
	if p2.Hash() != p.Hash() {
		t.Fatal("net name moved the per-net hash")
	}

	// The per-net form must agree with the equivalent /v1/route request:
	// both endpoints advertise the same wire-visible problem_hash (the
	// stored response shapes differ, so the server keys them apart).
	routeEq := &RouteRequest{Grid: *grid, Kind: "rbp", PeriodPS: 500,
		Src: rbpNet.Src, Dst: rbpNet.Dst}
	if got := mustHash(t, routeEq); got != p.Hash() {
		t.Fatalf("per-net and route canonical forms disagree: %s vs %s", p.Hash(), got)
	}

	galsNet := &NetSpec{Name: "x", Src: Point{X: 1, Y: 1}, Dst: Point{X: 30, Y: 30}, SrcPeriodPS: 400, DstPeriodPS: 650}
	pg, err := CanonicalizeNet(grid, galsNet)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Kind != "gals" || pg.SrcPeriodPS != 400 || pg.DstPeriodPS != 650 || pg.PeriodPS != 0 {
		t.Fatalf("unequal-period net canonicalized to %+v, want gals 400/650", pg)
	}

	// Wire widths are semantic and order-sensitive (first-best wins ties).
	wide := *rbpNet
	wide.WireWidths = []float64{1, 2}
	pw, _ := CanonicalizeNet(grid, &wide)
	if pw.Hash() == p.Hash() {
		t.Fatal("wire_widths did not move the hash")
	}
	swapped := *rbpNet
	swapped.WireWidths = []float64{2, 1}
	ps, _ := CanonicalizeNet(grid, &swapped)
	if ps.Hash() == pw.Hash() {
		t.Fatal("wire_widths order must stay semantic")
	}
}

func TestProblemHashRendering(t *testing.T) {
	h := mustHash(t, validCanonRoute())
	hex := h.Hex()
	if len(hex) != 64 || strings.ToLower(hex) != hex {
		t.Fatalf("hex form %q not 64 lowercase chars", hex)
	}
	if h.ETag() != `"`+hex+`"` {
		t.Fatalf("ETag %q not the quoted hex", h.ETag())
	}
}

// TestProblemHashUint64 pins the ring key to the big-endian first eight
// bytes of the digest: a silent change would remap every net's shard.
func TestProblemHashUint64(t *testing.T) {
	var h ProblemHash
	copy(h[:], []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0xff})
	if got, want := h.Uint64(), uint64(0x0102030405060708); got != want {
		t.Fatalf("Uint64 = %#x, want %#x", got, want)
	}
	real := mustHash(t, validCanonRoute())
	if real.Uint64() == 0 {
		t.Fatal("real hash folded to zero (suspicious)")
	}
}

func TestCacheOptionsValidate(t *testing.T) {
	for _, ok := range []string{"", "default", "bypass", "refresh"} {
		if err := (&CacheOptions{Mode: ok}).Validate(); err != nil {
			t.Errorf("mode %q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"Default", "none", "force", "x"} {
		if err := (&CacheOptions{Mode: bad}).Validate(); err == nil {
			t.Errorf("mode %q accepted", bad)
		}
	}
	var nilOpts *CacheOptions
	if nilOpts.EffectiveMode() != CacheModeDefault {
		t.Fatal("nil options must resolve to default")
	}
}

// FuzzCanonicalHash: for any decodable request, the canonical hash must be
// stable under every non-semantic rewrite — rect corner order, blockage
// list order, duplicated rects, and the stripped fields.
func FuzzCanonicalHash(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRouteRequest(strings.NewReader(string(data)))
		if err != nil {
			return // only valid requests canonicalize
		}
		p, err := Canonicalize(req)
		if err != nil {
			t.Fatalf("decoded request fails Canonicalize: %v", err)
		}
		base := p.Hash()

		perturbed := *req
		perturbed.Grid.Obstacles = permuteRects(req.Grid.Obstacles)
		perturbed.Grid.RegisterBlockages = permuteRects(req.Grid.RegisterBlockages)
		perturbed.Grid.WiringBlockages = permuteRects(req.Grid.WiringBlockages)
		perturbed.TimeoutMS = (req.TimeoutMS + 1) % 1000
		perturbed.Cache = &CacheOptions{Mode: CacheModeRefresh}
		p2, err := Canonicalize(&perturbed)
		if err != nil {
			t.Fatalf("perturbed request fails Canonicalize: %v", err)
		}
		if got := p2.Hash(); got != base {
			t.Fatalf("hash unstable under non-semantic rewrite: %s vs %s", got, base)
		}

		// And the encoding itself must be deterministic call to call.
		if string(p.AppendBinary(nil)) != string(p2.AppendBinary(nil)) {
			t.Fatal("canonical encodings differ for equal problems")
		}
	})
}

// permuteRects reverses a rect list and swaps every rect's corners — a
// deterministic non-semantic rewrite, with a duplicate appended when the
// list is non-empty.
func permuteRects(rects []Rect) []Rect {
	if len(rects) == 0 {
		return rects
	}
	out := make([]Rect, 0, len(rects)+1)
	for i := len(rects) - 1; i >= 0; i-- {
		r := rects[i]
		out = append(out, Rect{X0: r.X1, Y0: r.Y1, X1: r.X0, Y1: r.Y0})
	}
	out = append(out, rects[0])
	return out
}
