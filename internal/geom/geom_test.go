package geom

import (
	"testing"
	"testing/quick"
)

func TestPointAddSub(t *testing.T) {
	p, q := Pt(3, -1), Pt(2, 7)
	if got := p.Add(q); got != Pt(5, 6) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Add(q).Sub(q); got != p {
		t.Errorf("Add then Sub = %v, want %v", got, p)
	}
}

func TestRectNormalization(t *testing.T) {
	r := R(5, 7, 2, 3)
	want := Rect{MinX: 2, MinY: 3, MaxX: 5, MaxY: 7}
	if r != want {
		t.Fatalf("R normalization = %+v, want %+v", r, want)
	}
	if r.W() != 3 || r.H() != 4 {
		t.Errorf("W/H = %d/%d", r.W(), r.H())
	}
}

func TestRectEmpty(t *testing.T) {
	if !(Rect{}).Empty() {
		t.Error("zero Rect should be empty")
	}
	if !R(3, 3, 3, 9).Empty() {
		t.Error("zero-width Rect should be empty")
	}
	if R(0, 0, 1, 1).Empty() {
		t.Error("unit Rect should not be empty")
	}
	if (Rect{}).W() != 0 || R(3, 3, 3, 9).H() != 0 {
		t.Error("empty Rect width and height should be 0")
	}
}

func TestPointIn(t *testing.T) {
	r := R(2, 2, 5, 5)
	in := []Point{Pt(2, 2), Pt(4, 4), Pt(2, 4)}
	out := []Point{Pt(5, 5), Pt(5, 2), Pt(2, 5), Pt(1, 3), Pt(3, 1)}
	for _, p := range in {
		if !p.In(r) {
			t.Errorf("%v should be in %v", p, r)
		}
	}
	for _, p := range out {
		if p.In(r) {
			t.Errorf("%v should not be in %v", p, r)
		}
	}
}

func TestRectIntersect(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	got := a.Intersect(b)
	if got != R(5, 5, 10, 10) {
		t.Errorf("Intersect = %v", got)
	}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("Overlaps should be true")
	}
	c := R(10, 0, 20, 10) // touches a only on the shared boundary
	if a.Overlaps(c) {
		t.Error("half-open rects sharing an edge must not overlap")
	}
	if !a.Intersect(c).Empty() {
		t.Error("edge-adjacent intersection must be empty")
	}
}

func TestRectInset(t *testing.T) {
	r := R(0, 0, 10, 10)
	if got := r.Inset(2); got != R(2, 2, 8, 8) {
		t.Errorf("Inset(2) = %v", got)
	}
	if got := r.Inset(5); !got.Empty() {
		t.Errorf("Inset(5) should be empty, got %v", got)
	}
	if got := r.Inset(-1); got != R(-1, -1, 11, 11) {
		t.Errorf("Inset(-1) = %v", got)
	}
}

func TestRectPointsOrderAndCount(t *testing.T) {
	r := R(1, 1, 3, 4)
	var got []Point
	r.Points(func(p Point) { got = append(got, p) })
	want := []Point{
		Pt(1, 1), Pt(2, 1),
		Pt(1, 2), Pt(2, 2),
		Pt(1, 3), Pt(2, 3),
	}
	if len(got) != len(want) {
		t.Fatalf("Points visited %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Points[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRectIntersectProperties(t *testing.T) {
	f := func(ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 int8) bool {
		a := R(int(ax0), int(ay0), int(ax1), int(ay1))
		b := R(int(bx0), int(by0), int(bx1), int(by1))
		i1, i2 := a.Intersect(b), b.Intersect(a)
		if i1 != i2 {
			return false // commutative
		}
		if i1.Empty() {
			return true
		}
		// Every point of the intersection must be inside both.
		corners := []Point{
			Pt(i1.MinX, i1.MinY), Pt(i1.MaxX-1, i1.MaxY-1),
		}
		for _, p := range corners {
			if !p.In(a) || !p.In(b) {
				return false
			}
		}
		return i1.W() <= min(a.W(), b.W()) && i1.H() <= min(a.H(), b.H())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMMManhattan(t *testing.T) {
	a, b := MM{X: 1.5, Y: 2.0}, MM{X: 0.5, Y: 4.5}
	if got := a.ManhattanMM(b); got != 3.5 {
		t.Errorf("ManhattanMM = %g, want 3.5", got)
	}
	if a.ManhattanMM(b) != b.ManhattanMM(a) {
		t.Error("ManhattanMM must be symmetric")
	}
}

func TestStringFormats(t *testing.T) {
	if got := Pt(3, -4).String(); got != "(3,-4)" {
		t.Errorf("Point.String = %q", got)
	}
	if got := R(0, 1, 2, 3).String(); got != "[0,1;2,3)" {
		t.Errorf("Rect.String = %q", got)
	}
}
