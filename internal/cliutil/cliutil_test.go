package cliutil

import (
	"strings"
	"testing"

	"clockroute/internal/geom"
)

func TestParsePoint(t *testing.T) {
	p, err := ParsePoint("3, 7")
	if err != nil || p != geom.Pt(3, 7) {
		t.Errorf("ParsePoint = %v, %v", p, err)
	}
	for _, bad := range []string{"", "3", "3,4,5", "a,b", "3,"} {
		if _, err := ParsePoint(bad); err == nil {
			t.Errorf("ParsePoint(%q) should fail", bad)
		}
	}
}

func TestParseRect(t *testing.T) {
	r, err := ParseRect("5,6,1,2")
	if err != nil || r != geom.R(1, 2, 5, 6) {
		t.Errorf("ParseRect = %v, %v", r, err)
	}
	for _, bad := range []string{"", "1,2,3", "1,2,3,x"} {
		if _, err := ParseRect(bad); err == nil {
			t.Errorf("ParseRect(%q) should fail", bad)
		}
	}
}

func TestRectList(t *testing.T) {
	var rl RectList
	if err := rl.Set("0,0,2,2"); err != nil {
		t.Fatal(err)
	}
	if err := rl.Set("3,3,5,5"); err != nil {
		t.Fatal(err)
	}
	if len(rl) != 2 {
		t.Fatalf("len = %d", len(rl))
	}
	if rl.String() != "0,0,2,2;3,3,5,5" {
		t.Errorf("String = %q", rl.String())
	}
	if err := rl.Set("bogus"); err == nil {
		t.Error("bad rect should fail")
	}
}

func TestValidatorPassesGoodFlags(t *testing.T) {
	var v Validator
	v.Positive("pitch", 0.25)
	v.NonNegativeInt("workers", 0)
	v.GridSize("grid", 101, 101)
	v.InBounds("src", geom.Pt(0, 0), 101, 101)
	v.InBounds("dst", geom.Pt(100, 100), 101, 101)
	v.Distinct("src", "dst", geom.Pt(0, 0), geom.Pt(100, 100))
	v.OneOf("kind", "gals", "fastpath", "rbp", "gals")
	if err := v.Err(); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
}

func TestValidatorCollectsEveryFailure(t *testing.T) {
	var v Validator
	v.Positive("pitch", 0)
	v.Positive("period", -5)
	v.NonNegativeInt("workers", -1)
	v.GridSize("grid", 1, 0)
	v.InBounds("src", geom.Pt(-1, 3), 10, 10)
	v.InBounds("dst", geom.Pt(10, 3), 10, 10)
	v.Distinct("src", "dst", geom.Pt(2, 2), geom.Pt(2, 2))
	v.OneOf("kind", "bogus", "fastpath", "rbp", "gals")
	err := v.Err()
	if err == nil {
		t.Fatal("all-bad flags accepted")
	}
	for _, want := range []string{"-pitch", "-period", "-workers", "-grid", "-src", "-dst", "-kind"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error drops %s: %v", want, err)
		}
	}
}

func TestParseGridSize(t *testing.T) {
	w, h, err := ParseGridSize("201x101")
	if err != nil || w != 201 || h != 101 {
		t.Errorf("ParseGridSize = %d,%d,%v", w, h, err)
	}
	if _, _, err := ParseGridSize("201X101"); err != nil {
		t.Error("upper-case X should parse")
	}
	for _, bad := range []string{"", "201", "axb", "2x3x4"} {
		if _, _, err := ParseGridSize(bad); err == nil {
			t.Errorf("ParseGridSize(%q) should fail", bad)
		}
	}
}
