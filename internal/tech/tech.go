// Package tech models the process technology the router plans against: the
// per-unit RC of the routing layer, and the switch-level parameters of the
// insertable elements (buffers, clocked registers, relay stations, and the
// mixed-clock FIFO).
//
// Units are fixed throughout the repository:
//
//	resistance  ohm
//	capacitance pF
//	delay/time  ps   (ohm × pF = ps)
//	distance    mm
//
// The default parameter set is calibrated to the 0.07 µm estimates of Cong
// and Pan used by the paper: a single 100×-minimum buffer on triple-wide
// wires, with register and MCFIFO delay characteristics identical to the
// buffer (Section V of the paper). See DESIGN.md for the calibration.
package tech

import (
	"errors"
	"fmt"
	"math"
)

// Kind classifies an insertable element.
type Kind int

const (
	// KindBuffer is a non-inverting repeater.
	KindBuffer Kind = iota
	// KindRegister is an edge-triggered register (also models a relay
	// station, which the paper abstracts as a register).
	KindRegister
	// KindFIFO is the mixed-clock FIFO that crosses clock domains.
	KindFIFO
	// KindLatch is a two-phase level-sensitive transparent latch.
	KindLatch
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindBuffer:
		return "buffer"
	case KindRegister:
		return "register"
	case KindFIFO:
		return "mcfifo"
	case KindLatch:
		return "latch"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Element is the switch-level model of an insertable gate g: output
// resistance R(g), input capacitance C(g), intrinsic delay K(g), and — for
// clocked elements — the setup time charged to the segment that ends at the
// element.
type Element struct {
	Name  string  // library name, e.g. "buf100x"
	Kind  Kind    // buffer, register, or MCFIFO
	R     float64 // output (driving) resistance, ohm
	C     float64 // input capacitance, pF
	K     float64 // intrinsic delay, ps
	Setup float64 // setup time, ps (zero for buffers)
}

// Validate reports the first problem with the element parameters.
func (e Element) Validate() error {
	switch {
	case e.Name == "":
		return errors.New("tech: element has no name")
	case e.R <= 0:
		return fmt.Errorf("tech: element %q: non-positive R %g", e.Name, e.R)
	case e.C <= 0:
		return fmt.Errorf("tech: element %q: non-positive C %g", e.Name, e.C)
	case e.K < 0:
		return fmt.Errorf("tech: element %q: negative K %g", e.Name, e.K)
	case e.Setup < 0:
		return fmt.Errorf("tech: element %q: negative setup %g", e.Name, e.Setup)
	case e.Kind == KindBuffer && e.Setup != 0:
		return fmt.Errorf("tech: buffer %q: non-zero setup %g", e.Name, e.Setup)
	}
	return nil
}

// Wire is the per-unit-length RC of the routing layer at the chosen width
// and layer assignment (the paper assumes both are fixed).
type Wire struct {
	RPerMM float64 // ohm per mm
	CPerMM float64 // pF per mm
}

// Validate reports the first problem with the wire parameters.
func (w Wire) Validate() error {
	if w.RPerMM <= 0 {
		return fmt.Errorf("tech: non-positive wire resistance %g ohm/mm", w.RPerMM)
	}
	if w.CPerMM <= 0 {
		return fmt.Errorf("tech: non-positive wire capacitance %g pF/mm", w.CPerMM)
	}
	return nil
}

// Tech bundles everything the routing algorithms need to evaluate delays:
// the wire model, the buffer library B, the register r, and the MCFIFO f.
type Tech struct {
	Name     string
	Wire     Wire
	Buffers  []Element // the buffer library B (non-inverting)
	Register Element   // r: register / relay station
	FIFO     Element   // f: mixed-clock FIFO
}

// Validate checks the whole parameter set for consistency.
func (t *Tech) Validate() error {
	if err := t.Wire.Validate(); err != nil {
		return err
	}
	if len(t.Buffers) == 0 {
		return errors.New("tech: empty buffer library")
	}
	seen := make(map[string]bool, len(t.Buffers)+2)
	for _, b := range t.Buffers {
		if err := b.Validate(); err != nil {
			return err
		}
		if b.Kind != KindBuffer {
			return fmt.Errorf("tech: element %q in buffer library has kind %v", b.Name, b.Kind)
		}
		if seen[b.Name] {
			return fmt.Errorf("tech: duplicate element name %q", b.Name)
		}
		seen[b.Name] = true
	}
	if err := t.Register.Validate(); err != nil {
		return err
	}
	if t.Register.Kind != KindRegister {
		return fmt.Errorf("tech: register element has kind %v", t.Register.Kind)
	}
	if err := t.FIFO.Validate(); err != nil {
		return err
	}
	if t.FIFO.Kind != KindFIFO {
		return fmt.Errorf("tech: FIFO element has kind %v", t.FIFO.Kind)
	}
	if seen[t.Register.Name] || t.Register.Name == t.FIFO.Name {
		return fmt.Errorf("tech: duplicate element name %q", t.Register.Name)
	}
	if seen[t.FIFO.Name] {
		return fmt.Errorf("tech: duplicate element name %q", t.FIFO.Name)
	}
	return nil
}

// WithWireWidth returns a copy of t with the routing wires scaled to
// width× the nominal width: resistance drops as 1/width while capacitance
// grows with the area term only (half the nominal capacitance is treated as
// width-independent fringe):
//
//	R' = R/width,   C' = C·(0.5 + 0.5·width)
//
// The paper fixes width and layer assignment and notes that the Lai–Wong
// shortest-path formulation extends to wire sizing; this helper provides
// the per-net width-selection variant of that extension — callers sweep a
// width set and keep the best result (see planner.NetSpec.WireWidths).
func (t *Tech) WithWireWidth(width float64) (*Tech, error) {
	if width <= 0 {
		return nil, fmt.Errorf("tech: non-positive wire width %g", width)
	}
	out := *t
	out.Name = fmt.Sprintf("%s-w%g", t.Name, width)
	out.Wire.RPerMM = t.Wire.RPerMM / width
	out.Wire.CPerMM = t.Wire.CPerMM * (0.5 + 0.5*width)
	out.Buffers = append([]Element(nil), t.Buffers...)
	return &out, nil
}

// Latch derives a two-phase transparent latch from the register's
// electrical parameters — the standard planning assumption that latch and
// register have identical switch-level characteristics (half the flip-flop
// really). Used by the latch-based routing extension.
func (t *Tech) Latch() Element {
	l := t.Register
	l.Name = "latch"
	l.Kind = KindLatch
	return l
}

// MinBufferR returns min R over the buffer library and the register —
// the quantity min(R(B ∪ r)) used by RBP's edge-feasibility look-ahead.
func (t *Tech) MinBufferR() float64 {
	m := t.Register.R
	for _, b := range t.Buffers {
		if b.R < m {
			m = b.R
		}
	}
	return m
}

// OptimalSpacingMM returns the repeater spacing L* that minimizes per-unit
// delay for buffer b on this wire:
//
//	L* = sqrt(2·(K + R·C) / (r·c))
//
// where r,c are the wire's per-mm resistance and capacitance.
func (t *Tech) OptimalSpacingMM(b Element) float64 {
	return math.Sqrt(2 * (b.K + b.R*b.C) / (t.Wire.RPerMM * t.Wire.CPerMM))
}

// MinDelayPerMM returns the minimum achievable delay per mm of an optimally
// buffered line using buffer b:
//
//	d/L = R·c + r·C + sqrt(2·(K + R·C)·r·c)
func (t *Tech) MinDelayPerMM(b Element) float64 {
	r, c := t.Wire.RPerMM, t.Wire.CPerMM
	return b.R*c + r*b.C + math.Sqrt(2*(b.K+b.R*b.C)*r*c)
}

// CongPan70nmMultiSize returns the calibrated technology with a three-size
// buffer library (50×, 100×, and 200× minimum). Sizing follows the usual
// switch-level scaling: a k×-larger buffer has 1/k the output resistance
// and k× the input capacitance, with the intrinsic delay unchanged. The
// search algorithms handle arbitrary libraries; this library exercises the
// multi-buffer paths and gives FastPath/RBP strictly more freedom than the
// paper's single-size setup.
func CongPan70nmMultiSize() *Tech {
	t := CongPan70nm()
	t.Name = "congpan-0.07um-multisize"
	base := t.Buffers[0]
	half := base
	half.Name = "buf50x"
	half.R, half.C = base.R*2, base.C/2
	double := base
	double.Name = "buf200x"
	double.R, double.C = base.R/2, base.C*2
	t.Buffers = []Element{half, base, double}
	return t
}

// CongPan70nm returns the calibrated 0.07 µm parameter set used by all
// experiments: triple-wide wires, a single 100×-minimum buffer, and
// register/MCFIFO delay characteristics identical to the buffer, matching
// the setup of Section V. The calibration reproduces the paper's unblocked
// 40 mm optimal buffered delay (≈2739 ps) and buffer spacing (18–21 grid
// edges at 0.125 mm pitch); see DESIGN.md.
func CongPan70nm() *Tech {
	const (
		r     = 160.0  // ohm
		c     = 0.0234 // pF
		k     = 22.0   // ps
		setup = 0.0    // ps
	)
	return &Tech{
		Name: "congpan-0.07um",
		Wire: Wire{RPerMM: 25.0, CPerMM: 0.30},
		Buffers: []Element{
			{Name: "buf100x", Kind: KindBuffer, R: r, C: c, K: k},
		},
		Register: Element{Name: "reg", Kind: KindRegister, R: r, C: c, K: k, Setup: setup},
		FIFO:     Element{Name: "mcfifo", Kind: KindFIFO, R: r, C: c, K: k, Setup: setup},
	}
}
