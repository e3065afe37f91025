// Package cliutil holds the flag helpers of the routed command: grid
// points, rectangles and repeatable rectangle lists, up-front validation
// of a whole flag set, and the observability flags every mode shares.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"clockroute/internal/geom"
)

// ParsePoint parses "x,y" into a grid point.
func ParsePoint(s string) (geom.Point, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return geom.Point{}, fmt.Errorf("cliutil: point %q: want x,y", s)
	}
	x, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return geom.Point{}, fmt.Errorf("cliutil: point %q: %v", s, err)
	}
	y, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return geom.Point{}, fmt.Errorf("cliutil: point %q: %v", s, err)
	}
	return geom.Pt(x, y), nil
}

// ParseRect parses "x0,y0,x1,y1" into a rectangle (corners in any order).
func ParseRect(s string) (geom.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return geom.Rect{}, fmt.Errorf("cliutil: rect %q: want x0,y0,x1,y1", s)
	}
	v := make([]int, 4)
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return geom.Rect{}, fmt.Errorf("cliutil: rect %q: %v", s, err)
		}
		v[i] = n
	}
	return geom.R(v[0], v[1], v[2], v[3]), nil
}

// RectList is a repeatable flag collecting rectangles.
type RectList []geom.Rect

// String implements flag.Value.
func (r *RectList) String() string {
	var parts []string
	for _, rc := range *r {
		parts = append(parts, fmt.Sprintf("%d,%d,%d,%d", rc.MinX, rc.MinY, rc.MaxX, rc.MaxY))
	}
	return strings.Join(parts, ";")
}

// Set implements flag.Value.
func (r *RectList) Set(s string) error {
	rc, err := ParseRect(s)
	if err != nil {
		return err
	}
	*r = append(*r, rc)
	return nil
}

// Validator accumulates flag-validation failures so a command can check
// every flag combination up front and report all problems in one usage
// message (instead of panicking or dying on the first bad input mid-run).
type Validator struct {
	errs []string
}

func (v *Validator) failf(format string, args ...any) {
	v.errs = append(v.errs, fmt.Sprintf(format, args...))
}

// Positive requires flag `name` to be > 0.
func (v *Validator) Positive(name string, val float64) {
	if val <= 0 {
		v.failf("-%s must be positive, got %g", name, val)
	}
}

// NonNegativeInt requires flag `name` to be >= 0.
func (v *Validator) NonNegativeInt(name string, val int) {
	if val < 0 {
		v.failf("-%s must not be negative, got %d", name, val)
	}
}

// NonNegativeDuration requires flag `name` to be >= 0.
func (v *Validator) NonNegativeDuration(name string, d time.Duration) {
	if d < 0 {
		v.failf("-%s must not be negative, got %v", name, d)
	}
}

// GridSize requires a routable grid: at least 2 columns and 1 row.
func (v *Validator) GridSize(name string, w, h int) {
	if w < 2 || h < 1 {
		v.failf("-%s grid %dx%d too small, want at least 2x1", name, w, h)
	}
}

// InBounds requires point p to lie on a w×h grid.
func (v *Validator) InBounds(name string, p geom.Point, w, h int) {
	if p.X < 0 || p.X >= w || p.Y < 0 || p.Y >= h {
		v.failf("-%s point %d,%d outside the %dx%d grid", name, p.X, p.Y, w, h)
	}
}

// Distinct requires the two named points to differ.
func (v *Validator) Distinct(nameA, nameB string, a, b geom.Point) {
	if a == b {
		v.failf("-%s and -%s must differ, both are %d,%d", nameA, nameB, a.X, a.Y)
	}
}

// Check records err, when non-nil, as a failure of flag `name` — for a
// check a parser or another package already performs.
func (v *Validator) Check(name string, err error) {
	if err != nil {
		v.failf("-%s: %v", name, err)
	}
}

// OneOf requires flag `name` to hold one of the allowed values.
func (v *Validator) OneOf(name, val string, allowed ...string) {
	for _, a := range allowed {
		if val == a {
			return
		}
	}
	v.failf("-%s must be one of %s, got %q", name, strings.Join(allowed, "|"), val)
}

// Err returns nil when every check passed, or one error listing every
// recorded failure, one per line — ready to print above the flag usage.
func (v *Validator) Err() error {
	if len(v.errs) == 0 {
		return nil
	}
	return fmt.Errorf("invalid flags:\n  %s", strings.Join(v.errs, "\n  "))
}

// ParseGridSize parses "WxH" into node counts.
func ParseGridSize(s string) (w, h int, err error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("cliutil: grid size %q: want WxH", s)
	}
	w, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("cliutil: grid size %q: %v", s, err)
	}
	h, err = strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("cliutil: grid size %q: %v", s, err)
	}
	return w, h, nil
}
