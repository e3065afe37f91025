package elmore

import (
	"math"
	"testing"
	"testing/quick"

	"clockroute/internal/tech"
)

func model(t *testing.T, pitch float64) *Model {
	t.Helper()
	m, err := NewModel(tech.CongPan70nm(), pitch)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(tech.CongPan70nm(), 0); err == nil {
		t.Error("zero pitch should fail")
	}
	bad := tech.CongPan70nm()
	bad.Buffers = nil
	if _, err := NewModel(bad, 0.125); err == nil {
		t.Error("invalid tech should fail")
	}
}

func TestMustNewModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewModel should panic on bad pitch")
		}
	}()
	MustNewModel(tech.CongPan70nm(), -1)
}

func TestEdgeRC(t *testing.T) {
	m := model(t, 0.125)
	if got := m.EdgeR(); math.Abs(got-25.0*0.125) > 1e-12 {
		t.Errorf("EdgeR = %g", got)
	}
	if got := m.EdgeC(); math.Abs(got-0.30*0.125) > 1e-12 {
		t.Errorf("EdgeC = %g", got)
	}
	r, c := m.WireRC(8)
	if math.Abs(r-25.0) > 1e-9 || math.Abs(c-0.30) > 1e-9 {
		t.Errorf("WireRC(8) = %g,%g want 25, 0.30 (one mm)", r, c)
	}
}

func TestAddEdgeRecurrence(t *testing.T) {
	m := model(t, 0.125)
	c0, d0 := 0.05, 100.0
	c1, d1 := m.AddEdge(c0, d0)
	wantC := c0 + m.EdgeC()
	wantD := d0 + m.EdgeR()*(c0+m.EdgeC()/2)
	if math.Abs(c1-wantC) > 1e-12 || math.Abs(d1-wantD) > 1e-12 {
		t.Errorf("AddEdge = (%g,%g), want (%g,%g)", c1, d1, wantC, wantD)
	}
}

func TestAddGate(t *testing.T) {
	m := model(t, 0.125)
	b := m.Tech().Buffers[0]
	c1, d1 := m.AddGate(b, 0.2, 50)
	if c1 != b.C {
		t.Errorf("AddGate capacitance = %g, want %g", c1, b.C)
	}
	if want := 50 + b.R*0.2 + b.K; math.Abs(d1-want) > 1e-12 {
		t.Errorf("AddGate delay = %g, want %g", d1, want)
	}
	if got := m.DriveInto(b, 0.2, 50); math.Abs(got-d1) > 1e-12 {
		t.Errorf("DriveInto = %g, want %g", got, d1)
	}
}

// The closed-form StageDelay must equal edge-by-edge application of the
// incremental recurrence followed by the driver — this is the equivalence
// the independent verifier relies on.
func TestStageDelayEqualsIncremental(t *testing.T) {
	m := model(t, 0.125)
	b := m.Tech().Buffers[0]
	r := m.Tech().Register
	for _, edges := range []int{0, 1, 2, 7, 40, 160} {
		for _, load := range []float64{0, r.C, 0.1, 1.5} {
			c, d := load, 0.0
			for i := 0; i < edges; i++ {
				c, d = m.AddEdge(c, d)
			}
			inc := m.DriveInto(b, c, d)
			closed := m.StageDelay(b, edges, load)
			if math.Abs(inc-closed) > 1e-9 {
				t.Errorf("edges=%d load=%g: incremental %g != closed %g", edges, load, inc, closed)
			}
		}
	}
}

func TestStageDelayEqualsIncrementalProperty(t *testing.T) {
	m := model(t, 0.5)
	f := func(edgesQ uint8, loadQ uint8) bool {
		edges := int(edgesQ % 64)
		load := float64(loadQ) / 100.0
		c, d := load, 0.0
		for i := 0; i < edges; i++ {
			c, d = m.AddEdge(c, d)
		}
		g := m.Tech().Register
		return math.Abs(m.DriveInto(g, c, d)-m.StageDelay(g, edges, load)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDelayMonotonicity(t *testing.T) {
	m := model(t, 0.125)
	b := m.Tech().Buffers[0]
	// Delay grows with wire length.
	prev := -1.0
	for edges := 0; edges < 50; edges++ {
		d := m.StageDelay(b, edges, 0.05)
		if d <= prev {
			t.Fatalf("StageDelay not increasing at %d edges", edges)
		}
		prev = d
	}
	// Delay grows with load.
	if m.StageDelay(b, 10, 0.01) >= m.StageDelay(b, 10, 0.02) {
		t.Error("StageDelay must increase with load")
	}
}

func TestMaxSegmentEdges(t *testing.T) {
	m := model(t, 0.125)
	r := m.Tech().Register

	// Exact boundary: the returned n fits, n+1 does not.
	for _, T := range []float64{49, 60, 100, 300, 925} {
		n := m.MaxSegmentEdges(T)
		if n < 1 {
			t.Fatalf("T=%g: no reach", T)
		}
		if d := r.Setup + m.StageDelay(r, n, r.C); d > T {
			t.Errorf("T=%g: returned n=%d does not fit (%g)", T, n, d)
		}
		if d := r.Setup + m.StageDelay(r, n+1, r.C); d <= T {
			t.Errorf("T=%g: n+1=%d also fits (%g), not maximal", T, n+1, d)
		}
	}

	// A period below the register's intrinsic cost is infeasible.
	if n := m.MaxSegmentEdges(r.K); n != 0 {
		t.Errorf("tiny period reach = %d, want 0", n)
	}
}

func TestMaxSegmentEdgesMonotoneInT(t *testing.T) {
	m := model(t, 0.125)
	prev := 0
	for _, T := range []float64{45, 49, 53, 62, 84, 150, 261, 343, 551, 925, 1371} {
		n := m.MaxSegmentEdges(T)
		if n < prev {
			t.Fatalf("reach decreased at T=%g: %d < %d", T, n, prev)
		}
		prev = n
	}
}

func TestMaxBufferedSegmentEdges(t *testing.T) {
	m := model(t, 0.125)
	// Buffers can only extend the reach, never shrink it.
	for _, T := range []float64{60, 100, 300, 700, 1371} {
		plain := m.MaxSegmentEdges(T)
		buffered := m.MaxBufferedSegmentEdges(T)
		if buffered < plain {
			t.Errorf("T=%g: buffered reach %d < unbuffered %d", T, buffered, plain)
		}
	}
	// At T=1371 the paper routes 160 edges (20 mm) in one cycle.
	if n := m.MaxBufferedSegmentEdges(1371); n < 150 {
		t.Errorf("T=1371 buffered reach = %d edges, want >= 150", n)
	}
	// A period below the register cost keeps reach 0.
	if n := m.MaxBufferedSegmentEdges(m.Tech().Register.K); n != 0 {
		t.Errorf("tiny period buffered reach = %d, want 0", n)
	}
}

func TestCalibratedSingleCycleReachMatchesPaper(t *testing.T) {
	// Table I's smallest periods pin registers every 1 edge (T=49) and every
	// 8 edges (T=84) with the authors' exact parameters. With our calibrated
	// parameters the corresponding fastest periods must land in the same
	// ballpark (they are what routed tables reports as the row periods).
	m := model(t, 0.125)
	r := m.Tech().Register
	t1 := r.Setup + m.StageDelay(r, 1, r.C) // fastest period with 1-edge reach
	if t1 < 20 || t1 > 60 {
		t.Errorf("fastest 1-edge period = %.1f ps, want 20..60 (paper: 49)", t1)
	}
	t8 := r.Setup + m.StageDelay(r, 8, r.C) // fastest period with 8-edge reach
	if t8 < 60 || t8 > 110 {
		t.Errorf("fastest 8-edge period = %.1f ps, want 60..110 (paper: 84)", t8)
	}
}
