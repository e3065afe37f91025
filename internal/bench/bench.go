// Package bench regenerates the paper's evaluation: Table I (RBP vs clock
// period), Table II (RBP vs clock period × grid pitch), and Table III (GALS
// vs domain periods), using the same methodology — the row periods are the
// fastest periods achieving each register count (footnote 1 of the paper),
// computed exactly with the 1-D oracle.
//
// Published values are embedded (paper.go) so reports show paper-vs-measured
// side by side; the tests assert the paper's qualitative observations
// (Sections V-A…V-C) at a reduced scale, and `routed tables` reproduces the full
// 200×200 configuration.
package bench

import (
	"fmt"
	"math"

	"clockroute/internal/core"
	"clockroute/internal/elmore"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/oracle"
	"clockroute/internal/tech"
)

// published runs the kernels as the paper publishes them: without the
// admissible A* bound layer, so the Configs and MaxQ columns count the
// published algorithm's effort rather than the pruned kernel's. Routed
// results are identical either way (the bounds' exactness contract).
var published = core.Options{DisableBounds: true}

// Scale fixes the experimental geometry: die size, grid pitch, and the
// source/sink positions (40 mm apart in the paper).
type Scale struct {
	PitchMM float64
	DieMM   float64
	SrcMM   geom.MM
	DstMM   geom.MM
}

// PaperScale is the configuration of Section V: a 25×25 mm chip, 0.125 mm
// grid separation (200×200 cells), source and sink 40 mm apart.
func PaperScale() Scale {
	return Scale{
		PitchMM: 0.125,
		DieMM:   25,
		SrcMM:   geom.MM{X: 2.5, Y: 2.5},
		DstMM:   geom.MM{X: 22.5, Y: 22.5},
	}
}

// ReducedScale is a 4×-coarser variant of PaperScale used by the test suite
// to keep runtimes small while preserving every qualitative observation.
func ReducedScale() Scale {
	s := PaperScale()
	s.PitchMM = 0.5
	return s
}

// WithPitch returns the scale with a different grid pitch.
func (s Scale) WithPitch(pitch float64) Scale {
	s.PitchMM = pitch
	return s
}

// GridDims returns the node counts of the scale's grid.
func (s Scale) GridDims() (w, h int) {
	n := int(math.Round(s.DieMM/s.PitchMM)) + 1
	return n, n
}

// EdgesApart returns the Manhattan source-sink separation in grid edges.
func (s Scale) EdgesApart() int {
	return int(math.Round(s.SrcMM.ManhattanMM(s.DstMM) / s.PitchMM))
}

// Build materializes the open grid, delay model, and problem for the scale.
func (s Scale) Build(tc *tech.Tech) (*core.Problem, error) {
	w, h := s.GridDims()
	g, err := grid.New(w, h, s.PitchMM)
	if err != nil {
		return nil, err
	}
	m, err := elmore.NewModel(tc, s.PitchMM)
	if err != nil {
		return nil, err
	}
	src := geom.Pt(int(math.Round(s.SrcMM.X/s.PitchMM)), int(math.Round(s.SrcMM.Y/s.PitchMM)))
	dst := geom.Pt(int(math.Round(s.DstMM.X/s.PitchMM)), int(math.Round(s.DstMM.Y/s.PitchMM)))
	return core.NewProblem(g, m, g.ID(src), g.ID(dst))
}

// RegisterTargets are the register counts whose fastest periods form the
// rows of Tables I and II in the paper.
var RegisterTargets = []int{1, 2, 3, 4, 5, 6, 7, 10, 39, 63, 79, 159, 319}

// FastestPeriods computes, for each register target, the smallest integral
// clock period (in ps) at which an open straight run of the scale's
// source-sink separation is routable with at most that many registers —
// the paper's footnote-1 methodology. Targets exceeding what the pitch can
// express (more registers than edges minus one) are skipped.
func FastestPeriods(tc *tech.Tech, s Scale, targets []int) ([]float64, []int, error) {
	edges := s.EdgesApart()
	line := oracle.Line{Edges: edges, PitchMM: s.PitchMM}
	var periods []float64
	var kept []int
	for _, p := range targets {
		if p > edges-1 {
			continue // cannot place that many registers on distinct nodes
		}
		T, err := oracle.FastestPeriodFor(line, tc, p, 0.25)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: target %d registers: %w", p, err)
		}
		periods = append(periods, math.Ceil(T))
		kept = append(kept, p)
	}
	return periods, kept, nil
}
