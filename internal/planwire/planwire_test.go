package planwire

import (
	"testing"

	"clockroute/api"
	"clockroute/internal/geom"
)

func TestBuildGridAppliesBlockages(t *testing.T) {
	g, err := BuildGrid(&api.GridSpec{
		W: 41, H: 11, PitchMM: 0.5,
		Obstacles:         []api.Rect{{X0: 12, Y0: 2, X1: 28, Y1: 9}},
		WiringBlockages:   []api.Rect{{X0: 34, Y0: 0, X1: 36, Y1: 5}},
		RegisterBlockages: []api.Rect{{X0: 8, Y0: 11, X1: 2, Y1: 8}}, // corners in any order
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Insertable(g.ID(geom.Pt(20, 5))) {
		t.Error("obstacle not applied")
	}
	if g.Degree(g.ID(geom.Pt(35, 2))) != 0 {
		t.Error("wiring blockage not applied")
	}
	if g.RegisterInsertable(g.ID(geom.Pt(3, 9))) {
		t.Error("register blockage not applied")
	}
	if !g.Insertable(g.ID(geom.Pt(3, 9))) || !g.RegisterInsertable(g.ID(geom.Pt(0, 0))) {
		t.Error("blockage leaked outside its rectangle")
	}
}
