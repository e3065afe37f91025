// Package geom provides the small amount of Manhattan geometry shared by the
// routing grid and the floorplanner: integer grid points, half-open
// rectangles, and millimeter positions.
//
// Grid coordinates are integer column/row indices into a routing grid;
// physical coordinates are float64 millimeters. The conversion between the
// two (a uniform pitch) lives in package grid; geom is unit-agnostic.
package geom

import "fmt"

// Point is an integer grid coordinate. X is the column, Y the row.
type Point struct {
	X, Y int
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int) Point { return Point{x, y} }

// String returns "(x,y)".
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Add returns the vector sum p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector difference p-q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// In reports whether p lies inside r.
func (p Point) In(r Rect) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// Rect is a half-open axis-aligned rectangle of grid points:
// it contains every point (x,y) with MinX <= x < MaxX and MinY <= y < MaxY.
// The half-open convention makes tiling and splitting exact.
type Rect struct {
	MinX, MinY, MaxX, MaxY int
}

// R constructs a Rect from two corners given in any order.
func R(x0, y0, x1, y1 int) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
}

// String returns "[x0,y0;x1,y1)".
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d;%d,%d)", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// Empty reports whether r contains no points.
func (r Rect) Empty() bool { return r.MinX >= r.MaxX || r.MinY >= r.MaxY }

// W returns the width of r in points (zero if empty).
func (r Rect) W() int {
	if r.Empty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// H returns the height of r in points (zero if empty).
func (r Rect) H() int {
	if r.Empty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Intersect returns the largest rectangle contained in both r and s.
// The result may be empty.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		MinX: max(r.MinX, s.MinX),
		MinY: max(r.MinY, s.MinY),
		MaxX: min(r.MaxX, s.MaxX),
		MaxY: min(r.MaxY, s.MaxY),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Overlaps reports whether r and s share at least one point.
func (r Rect) Overlaps(s Rect) bool { return !r.Intersect(s).Empty() }

// Inset shrinks r by d points on every side. A negative d grows the
// rectangle. The result may be empty.
func (r Rect) Inset(d int) Rect {
	out := Rect{MinX: r.MinX + d, MinY: r.MinY + d, MaxX: r.MaxX - d, MaxY: r.MaxY - d}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Points calls fn for every point inside r in row-major order.
func (r Rect) Points(fn func(Point)) {
	for y := r.MinY; y < r.MaxY; y++ {
		for x := r.MinX; x < r.MaxX; x++ {
			fn(Point{x, y})
		}
	}
}

// MM is a physical position in millimeters.
type MM struct {
	X, Y float64
}

// ManhattanMM returns the L1 distance between two physical positions.
func (a MM) ManhattanMM(b MM) float64 {
	return absf(a.X-b.X) + absf(a.Y-b.Y)
}

func absf(a float64) float64 {
	if a < 0 {
		return -a
	}
	return a
}
