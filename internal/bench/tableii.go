package bench

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"

	"clockroute/internal/core"
	"clockroute/internal/route"
	"clockroute/internal/tech"
)

// TableIICell is one cell of Table II: RBP at one (pitch, period) point.
// Feasible=false reproduces the paper's empty cells — the pitch is too
// coarse to place registers close enough for the period.
type TableIICell struct {
	PeriodPS  float64
	Feasible  bool
	Registers int
	Buffers   int
	LatencyPS float64
	MaxSep    int // register separation (buffer separation for the ∞ row)
	MinSep    int
	Time      time.Duration
}

// TableIIBlock is the set of cells for one grid pitch.
type TableIIBlock struct {
	Scale Scale
	Cells []TableIICell
}

// TableIIReport is the regenerated Table II.
type TableIIReport struct {
	Blocks []TableIIBlock
}

// TableII regenerates Table II: the same period sweep across several grid
// pitches. Periods are derived once from the finest pitch (as in the
// paper, where one period list heads all three blocks); the +Inf entry is
// the Fast Path row.
func TableII(tc *tech.Tech, base Scale, pitches []float64, targets []int) (*TableIIReport, error) {
	if len(pitches) == 0 {
		return nil, fmt.Errorf("bench: no pitches")
	}
	finest := pitches[0]
	for _, p := range pitches {
		if p < finest {
			finest = p
		}
	}
	periods, _, err := FastestPeriods(tc, base.WithPitch(finest), targets)
	if err != nil {
		return nil, err
	}
	periods = append([]float64{math.Inf(1)}, periods...)

	rep := &TableIIReport{}
	for _, pitch := range pitches {
		s := base.WithPitch(pitch)
		prob, err := s.Build(tc)
		if err != nil {
			return nil, err
		}
		block := TableIIBlock{Scale: s}
		for _, T := range periods {
			cell := TableIICell{PeriodPS: T, MaxSep: -1, MinSep: -1}
			var res *core.Result
			var runErr error
			if math.IsInf(T, 1) {
				res, runErr = core.FastPath(prob, published)
			} else {
				res, runErr = core.RBP(prob, T, published)
				if runErr == nil {
					if _, err := route.VerifySingleClock(res.Path, prob.Grid, prob.Model, T); err != nil {
						return nil, fmt.Errorf("bench: pitch %g T=%g failed verification: %w", pitch, T, err)
					}
				}
			}
			if runErr != nil {
				block.Cells = append(block.Cells, cell) // infeasible cell
				continue
			}
			cell.Feasible = true
			cell.Registers = res.Registers
			cell.Buffers = res.Buffers
			cell.LatencyPS = res.Latency
			cell.Time = res.Stats.Elapsed
			// For the ∞ row the paper reports buffer separation; otherwise
			// register separation.
			if math.IsInf(T, 1) {
				if sep, ok := res.Path.ElementSeparation(); ok {
					cell.MaxSep, cell.MinSep = sep.Max, sep.Min
				}
			} else if sep, ok := res.Path.RegisterSeparation(); ok {
				cell.MaxSep, cell.MinSep = sep.Max, sep.Min
			}
			block.Cells = append(block.Cells, cell)
		}
		rep.Blocks = append(rep.Blocks, block)
	}
	return rep, nil
}

// Write renders the report in the paper's layout: one block per pitch, one
// column per period. Infeasible cells print "-".
func (r *TableIIReport) Write(w io.Writer) error {
	for _, b := range r.Blocks {
		gw, gh := b.Scale.GridDims()
		fmt.Fprintf(w, "Grid separation %gmm: %dx%d grid\n", b.Scale.PitchMM, gw, gh)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		header := "Period\t"
		rows := map[string]string{
			"Registers": "Registers\t", "Buffers": "Buffers\t", "Latency": "Latency\t",
			"MaxSep": "Max.Sep\t", "MinSep": "Min.Sep\t", "time(s)": "time(s)\t",
		}
		for _, c := range b.Cells {
			header += fmtPeriod(c.PeriodPS) + "\t"
			if !c.Feasible {
				for k := range rows {
					rows[k] += "-\t"
				}
				continue
			}
			if math.IsInf(c.PeriodPS, 1) {
				rows["Registers"] += "-\t"
			} else {
				rows["Registers"] += fmt.Sprintf("%d\t", c.Registers)
			}
			rows["Buffers"] += fmt.Sprintf("%d\t", c.Buffers)
			rows["Latency"] += fmt.Sprintf("%.0f\t", c.LatencyPS)
			rows["MaxSep"] += fmtSep(c.MaxSep) + "\t"
			rows["MinSep"] += fmtSep(c.MinSep) + "\t"
			rows["time(s)"] += fmt.Sprintf("%.2f\t", c.Time.Seconds())
		}
		fmt.Fprintln(tw, header)
		for _, key := range []string{"Registers", "Buffers", "Latency", "MaxSep", "MinSep", "time(s)"} {
			fmt.Fprintln(tw, rows[key])
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
