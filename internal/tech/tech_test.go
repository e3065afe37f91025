package tech

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCongPan70nmValidates(t *testing.T) {
	tc := CongPan70nm()
	if err := tc.Validate(); err != nil {
		t.Fatalf("default technology must validate: %v", err)
	}
}

func TestCongPan70nmCalibration(t *testing.T) {
	tc := CongPan70nm()
	b := tc.Buffers[0]

	// The paper's unblocked 40 mm minimum buffered delay is 2739 ps; the
	// calibrated parameters must land within 2% so latencies track the
	// published tables.
	perMM := tc.MinDelayPerMM(b)
	total := perMM * 40.0
	if total < 2739*0.98 || total > 2739*1.02 {
		t.Errorf("40mm optimal buffered delay = %.0f ps, want within 2%% of 2739", total)
	}

	// Optimal spacing should be ~18-21 grid edges at 0.125 mm pitch, as the
	// paper observed 18-19 edges between repeaters.
	edges := tc.OptimalSpacingMM(b) / 0.125
	if edges < 16 || edges > 24 {
		t.Errorf("optimal spacing = %.1f edges at 0.125mm, want 16..24", edges)
	}
}

func TestOptimalSpacingIsTheMinimizer(t *testing.T) {
	tc := CongPan70nm()
	b := tc.Buffers[0]
	star := tc.OptimalSpacingMM(b)

	perMM := func(L float64) float64 {
		// delay of one segment of length L divided by L
		wr, wc := tc.Wire.RPerMM*L, tc.Wire.CPerMM*L
		d := b.K + b.R*(wc+b.C) + wr*(wc/2+b.C)
		return d / L
	}
	dStar := perMM(star)
	for _, L := range []float64{star * 0.5, star * 0.8, star * 1.2, star * 2} {
		if perMM(L) < dStar-1e-9 {
			t.Errorf("per-mm delay at L=%.3f (%.4f) beats L*=%.3f (%.4f)", L, perMM(L), star, dStar)
		}
	}
	// And the closed form must agree with the direct evaluation at L*.
	if got := tc.MinDelayPerMM(b); math.Abs(got-dStar) > 1e-6 {
		t.Errorf("MinDelayPerMM = %g, direct evaluation at L* = %g", got, dStar)
	}
}

func TestElementValidate(t *testing.T) {
	good := Element{Name: "b", Kind: KindBuffer, R: 100, C: 0.02, K: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("good element: %v", err)
	}
	cases := []struct {
		name string
		e    Element
		frag string
	}{
		{"no name", Element{Kind: KindBuffer, R: 1, C: 1}, "no name"},
		{"bad R", Element{Name: "x", R: 0, C: 1}, "non-positive R"},
		{"bad C", Element{Name: "x", R: 1, C: -1}, "non-positive C"},
		{"bad K", Element{Name: "x", R: 1, C: 1, K: -1}, "negative K"},
		{"bad setup", Element{Name: "x", R: 1, C: 1, Setup: -2}, "negative setup"},
		{"buffer setup", Element{Name: "x", Kind: KindBuffer, R: 1, C: 1, Setup: 1}, "non-zero setup"},
	}
	for _, c := range cases {
		err := c.e.Validate()
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.frag)
		}
	}
}

func TestWireValidate(t *testing.T) {
	if err := (Wire{RPerMM: 25, CPerMM: 0.3}).Validate(); err != nil {
		t.Fatalf("good wire: %v", err)
	}
	if err := (Wire{RPerMM: 0, CPerMM: 0.3}).Validate(); err == nil {
		t.Error("zero resistance should fail")
	}
	if err := (Wire{RPerMM: 25, CPerMM: 0}).Validate(); err == nil {
		t.Error("zero capacitance should fail")
	}
}

func TestTechValidateRejectsBadLibraries(t *testing.T) {
	base := CongPan70nm()

	empty := *base
	empty.Buffers = nil
	if err := empty.Validate(); err == nil {
		t.Error("empty buffer library should fail")
	}

	wrongKind := *base
	wrongKind.Buffers = []Element{{Name: "r", Kind: KindRegister, R: 1, C: 1}}
	if err := wrongKind.Validate(); err == nil {
		t.Error("register in buffer library should fail")
	}

	dupName := *base
	dupName.Buffers = []Element{
		{Name: "b", Kind: KindBuffer, R: 1, C: 1},
		{Name: "b", Kind: KindBuffer, R: 2, C: 2},
	}
	if err := dupName.Validate(); err == nil {
		t.Error("duplicate buffer names should fail")
	}

	regKind := *base
	regKind.Register.Kind = KindBuffer
	if err := regKind.Validate(); err == nil {
		t.Error("register with buffer kind should fail")
	}

	fifoKind := *base
	fifoKind.FIFO.Kind = KindRegister
	if err := fifoKind.Validate(); err == nil {
		t.Error("FIFO with register kind should fail")
	}

	regDup := *base
	regDup.Register.Name = regDup.Buffers[0].Name
	if err := regDup.Validate(); err == nil {
		t.Error("register sharing a buffer name should fail")
	}

	fifoDup := *base
	fifoDup.FIFO.Name = fifoDup.Register.Name
	if err := fifoDup.Validate(); err == nil {
		t.Error("FIFO sharing the register name should fail")
	}
}

func TestMinBufferR(t *testing.T) {
	tc := CongPan70nm()
	if got := tc.MinBufferR(); got != 160 {
		t.Errorf("MinBufferR = %g, want 160", got)
	}
	tc.Buffers = append(tc.Buffers, Element{Name: "big", Kind: KindBuffer, R: 40, C: 0.1, K: 30})
	if got := tc.MinBufferR(); got != 40 {
		t.Errorf("MinBufferR with bigger buffer = %g, want 40", got)
	}
	tc.Register.R = 10
	if got := tc.MinBufferR(); got != 10 {
		t.Errorf("MinBufferR must include the register, got %g", got)
	}
}

func TestKindString(t *testing.T) {
	if KindBuffer.String() != "buffer" || KindRegister.String() != "register" || KindFIFO.String() != "mcfifo" {
		t.Error("Kind.String names wrong")
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind string = %q", got)
	}
}

// Property: for any positive element/wire parameters, MinDelayPerMM is never
// beaten by any concrete spacing, i.e. the closed form really is a lower
// bound over sampled segment lengths.
func TestMinDelayPerMMIsLowerBound(t *testing.T) {
	f := func(rQ, cQ, kQ, wrQ, wcQ uint8) bool {
		b := Element{
			Name: "b", Kind: KindBuffer,
			R: 10 + float64(rQ),        // 10..265 ohm
			C: 0.005 + float64(cQ)/1e3, // 0.005..0.26 pF
			K: float64(kQ) / 4,         // 0..64 ps
		}
		tc := Tech{
			Name:     "q",
			Wire:     Wire{RPerMM: 1 + float64(wrQ)/2, CPerMM: 0.05 + float64(wcQ)/500},
			Buffers:  []Element{b},
			Register: Element{Name: "r", Kind: KindRegister, R: b.R, C: b.C, K: b.K},
			FIFO:     Element{Name: "f", Kind: KindFIFO, R: b.R, C: b.C, K: b.K},
		}
		bound := tc.MinDelayPerMM(b)
		for _, L := range []float64{0.1, 0.5, 1, 2, 5, 10} {
			wr, wc := tc.Wire.RPerMM*L, tc.Wire.CPerMM*L
			d := b.K + b.R*(wc+b.C) + wr*(wc/2+b.C)
			if d/L < bound-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCongPan70nmMultiSize(t *testing.T) {
	tc := CongPan70nmMultiSize()
	if err := tc.Validate(); err != nil {
		t.Fatalf("multi-size technology must validate: %v", err)
	}
	if len(tc.Buffers) != 3 {
		t.Fatalf("library size = %d, want 3", len(tc.Buffers))
	}
	base := CongPan70nm().Buffers[0]
	half, mid, double := tc.Buffers[0], tc.Buffers[1], tc.Buffers[2]
	if mid != base {
		t.Error("middle buffer must be the single-size base")
	}
	if half.R != 2*base.R || half.C != base.C/2 {
		t.Errorf("50x scaling wrong: R=%g C=%g", half.R, half.C)
	}
	if double.R != base.R/2 || double.C != 2*base.C {
		t.Errorf("200x scaling wrong: R=%g C=%g", double.R, double.C)
	}
	// Larger buffers drive harder: MinBufferR must come from the 200x.
	if tc.MinBufferR() != double.R {
		t.Errorf("MinBufferR = %g, want %g", tc.MinBufferR(), double.R)
	}
	// Drive strength scaling leaves R*C invariant.
	for _, b := range tc.Buffers {
		if math.Abs(b.R*b.C-base.R*base.C) > 1e-12 {
			t.Errorf("%s: R*C = %g, want %g", b.Name, b.R*b.C, base.R*base.C)
		}
	}
}

// TestShippedLibraryNamesDiffer checks that output labelled by Tech.Name
// tells the shipped libraries apart, their wire-width variants included.
func TestShippedLibraryNamesDiffer(t *testing.T) {
	seen := map[string]bool{}
	for _, tc := range []*Tech{CongPan70nm(), CongPan70nmMultiSize()} {
		names := []string{tc.Name}
		for _, width := range []float64{1, 2, 3} {
			wt, err := tc.WithWireWidth(width)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, wt.Name)
		}
		for _, name := range names {
			if name == "" || seen[name] {
				t.Errorf("library name %q is empty or shared", name)
			}
			seen[name] = true
		}
	}
}

func TestWithWireWidth(t *testing.T) {
	base := CongPan70nm()
	wide, err := base.WithWireWidth(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.Validate(); err != nil {
		t.Fatalf("scaled tech must validate: %v", err)
	}
	if wide.Wire.RPerMM != base.Wire.RPerMM/2 {
		t.Errorf("R scaling: %g", wide.Wire.RPerMM)
	}
	if math.Abs(wide.Wire.CPerMM-base.Wire.CPerMM*1.5) > 1e-12 {
		t.Errorf("C scaling: %g", wide.Wire.CPerMM)
	}
	// Base untouched (deep enough copy).
	if base.Wire.RPerMM != 25 {
		t.Error("WithWireWidth mutated the base tech")
	}
	wide.Buffers[0].R = 1
	if base.Buffers[0].R == 1 {
		t.Error("buffer slice aliased")
	}
	if _, err := base.WithWireWidth(0); err == nil {
		t.Error("zero width must fail")
	}
	if _, err := base.WithWireWidth(-2); err == nil {
		t.Error("negative width must fail")
	}
}

func TestWireWidthDelayTradeoff(t *testing.T) {
	// Width scaling trades the R·c driving term against the distributed
	// r·c term. With the strongly-driven 100x buffer the load term
	// dominates, so the half-width wire is faster and the double-width
	// slower — width selection is a genuine optimization, not a monotone
	// knob.
	base := CongPan70nm()
	perMM := func(tc *Tech) float64 {
		best := math.Inf(1)
		for _, b := range tc.Buffers {
			if d := tc.MinDelayPerMM(b); d < best {
				best = d
			}
		}
		return best
	}
	narrow, _ := base.WithWireWidth(0.5)
	wide, _ := base.WithWireWidth(2)
	d05, d1, d2 := perMM(narrow), perMM(base), perMM(wide)
	if !(d05 < d1 && d1 < d2) {
		t.Errorf("expected d(0.5) < d(1) < d(2) for the cap-dominated 100x buffer, got %g, %g, %g", d05, d1, d2)
	}
	// The distributed r·c product itself must shrink with width.
	rc := func(tc *Tech) float64 { return tc.Wire.RPerMM * tc.Wire.CPerMM }
	if !(rc(wide) < rc(base) && rc(base) < rc(narrow)) {
		t.Error("r*c must decrease with width")
	}
}
