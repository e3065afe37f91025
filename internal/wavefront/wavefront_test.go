package wavefront

import (
	"bytes"
	"image/png"
	"strings"
	"testing"

	"clockroute/internal/core"
	"clockroute/internal/elmore"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/tech"
)

func runRBP(t *testing.T, g *grid.Grid, s, tt geom.Point, T float64) (*Recorder, *core.Result) {
	t.Helper()
	m := elmore.MustNewModel(tech.CongPan70nm(), g.PitchMM())
	p, err := core.NewProblem(g, m, g.ID(s), g.ID(tt))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(g)
	res, err := core.RBP(p, T, core.Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	return rec, res
}

func TestRecorderCountsMatchStats(t *testing.T) {
	g := grid.MustNew(31, 7, 0.5)
	rec, res := runRBP(t, g, geom.Pt(0, 3), geom.Pt(30, 3), 300)
	total := 0
	for w := 0; w < rec.Waves(); w++ {
		total += rec.perWave[w]
	}
	if total != res.Stats.Configs {
		t.Errorf("recorded visits %d != configs %d", total, res.Stats.Configs)
	}
	if rec.Waves() != res.Registers+1 {
		t.Errorf("waves %d, want %d", rec.Waves(), res.Registers+1)
	}
	for w := 0; w < rec.Waves(); w++ {
		if rec.latencies[w] != 300*float64(w+1) {
			t.Errorf("wave %d latency = %g", w, rec.latencies[w])
		}
	}
}

func TestWavesGrowOutwardFromSink(t *testing.T) {
	// The expansion starts at the sink, so nodes near it belong to earlier
	// waves than nodes near the source (Fig. 6's concentric rings).
	g := grid.MustNew(41, 5, 0.5)
	sink := geom.Pt(40, 2)
	rec, res := runRBP(t, g, geom.Pt(0, 2), sink, 250)
	if res.Registers < 2 {
		t.Skip("need multiple waves for the ring structure")
	}
	nearSink := rec.firstWave[g.ID(geom.Pt(38, 2))]
	nearSource := rec.firstWave[g.ID(geom.Pt(2, 2))]
	if nearSink == -1 || nearSource == -1 {
		t.Fatal("nodes adjacent to the endpoints must be visited")
	}
	if nearSink >= nearSource {
		t.Errorf("wave(near sink)=%d should precede wave(near source)=%d", nearSink, nearSource)
	}
}

func TestFirstWaveMonotoneAlongSpine(t *testing.T) {
	g := grid.MustNew(41, 3, 0.5)
	rec, _ := runRBP(t, g, geom.Pt(0, 1), geom.Pt(40, 1), 250)
	prev := -1
	for x := 40; x >= 0; x-- {
		w := rec.firstWave[g.ID(geom.Pt(x, 1))]
		if w == -1 {
			continue
		}
		if w < prev {
			// Waves may revisit, but first-visit indices along the straight
			// spine toward the source must not decrease.
			t.Fatalf("first wave decreased at x=%d: %d after %d", x, w, prev)
		}
		prev = w
	}
}

func TestRenderShowsLegend(t *testing.T) {
	g := grid.MustNew(31, 7, 0.5)
	g.AddObstacle(geom.R(10, 2, 14, 5))
	g.AddWiringBlockage(geom.R(20, 0, 22, 3))
	rec, res := runRBP(t, g, geom.Pt(0, 3), geom.Pt(30, 3), 300)

	var buf bytes.Buffer
	if err := rec.Render(&buf, res.Path); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 7 {
		t.Fatalf("rendered %d rows, want 7", len(lines))
	}
	for i, l := range lines {
		if len(l) != 31 {
			t.Fatalf("row %d has %d cols, want 31", i, len(l))
		}
	}
	for _, sym := range []string{"S", "T", "#", "="} {
		if !strings.Contains(out, sym) {
			t.Errorf("render missing %q:\n%s", sym, out)
		}
	}
	if res.Registers > 0 && !strings.Contains(out, "R") {
		t.Errorf("render missing register overlay:\n%s", out)
	}
	// Wave digits must appear.
	if !strings.ContainsAny(out, "0123456789") {
		t.Errorf("render missing wave digits:\n%s", out)
	}
}

func TestRenderWithoutPath(t *testing.T) {
	g := grid.MustNew(11, 4, 0.5)
	rec, _ := runRBP(t, g, geom.Pt(0, 1), geom.Pt(10, 1), 400)
	var buf bytes.Buffer
	if err := rec.Render(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.ContainsAny(buf.String(), "ST") {
		t.Error("no-path render must not contain endpoint markers")
	}
}

func TestSummary(t *testing.T) {
	g := grid.MustNew(41, 3, 0.5)
	rec, res := runRBP(t, g, geom.Pt(0, 1), geom.Pt(40, 1), 250)
	var buf bytes.Buffer
	if err := rec.Summary(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != res.Registers+1 {
		t.Errorf("summary has %d lines, want %d", len(lines), res.Registers+1)
	}
	if !strings.Contains(lines[0], "wave  0") {
		t.Errorf("summary format: %q", lines[0])
	}
}

func TestWaveSymbolOverflow(t *testing.T) {
	if waveSymbol(0) != '0' || waveSymbol(9) != '9' || waveSymbol(10) != 'a' || waveSymbol(35) != 'z' {
		t.Error("wave symbols wrong")
	}
	if waveSymbol(36) != '+' || waveSymbol(100) != '+' {
		t.Error("overflow symbol wrong")
	}
}

func TestRenderPNG(t *testing.T) {
	g := grid.MustNew(31, 7, 0.5)
	g.AddObstacle(geom.R(10, 2, 14, 5))
	g.AddWiringBlockage(geom.R(20, 0, 22, 3))
	rec, res := runRBP(t, g, geom.Pt(0, 3), geom.Pt(30, 3), 300)

	var buf bytes.Buffer
	if err := rec.RenderPNG(&buf, res.Path, 4); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatalf("output is not a valid PNG: %v", err)
	}
	b := img.Bounds()
	if b.Dx() != 31*4 || b.Dy() != 7*4 {
		t.Errorf("image size %dx%d, want %dx%d", b.Dx(), b.Dy(), 31*4, 7*4)
	}

	// The source cell must carry the register overlay color (green-ish):
	// source (0,3) renders at image y = (6-3)*4.
	r0, g0, b0, _ := img.At(1, 3*4+1).RGBA()
	if !(g0 > r0 && g0 > b0) {
		t.Errorf("source pixel not register-colored: r=%d g=%d b=%d", r0>>8, g0>>8, b0>>8)
	}

	if err := rec.RenderPNG(&buf, nil, 0); err == nil {
		t.Error("cell=0 must fail")
	}
	// Path-free render also valid.
	buf.Reset()
	if err := rec.RenderPNG(&buf, nil, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := png.Decode(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestWaveColorGradient(t *testing.T) {
	c0 := waveColor(0, 10)
	cN := waveColor(9, 10)
	if c0.B <= cN.B || cN.R <= c0.R {
		t.Errorf("gradient should go blue->red: %v .. %v", c0, cN)
	}
	// Degenerate wave counts must not divide by zero.
	_ = waveColor(0, 1)
	_ = waveColor(0, 0)
}
