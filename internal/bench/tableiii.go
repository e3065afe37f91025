package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"clockroute/internal/core"
	"clockroute/internal/route"
	"clockroute/internal/tech"
)

// TableIIIRow is one regenerated row of Table III: GALS for one pair of
// domain periods.
type TableIIIRow struct {
	Ts, Tt     float64
	Buffers    int
	RegT, RegS int
	LatencyPS  float64
	Configs    int
	Time       time.Duration
}

// TableIIIReport is the regenerated Table III.
type TableIIIReport struct {
	Scale Scale
	Rows  []TableIIIRow
}

// TableIII regenerates Table III: GALS runs for each (Ts, Tt) pair on the
// scale's grid, each verified independently.
func TableIII(tc *tech.Tech, s Scale, pairs [][2]float64) (*TableIIIReport, error) {
	prob, err := s.Build(tc)
	if err != nil {
		return nil, err
	}
	rep := &TableIIIReport{Scale: s}
	for _, pr := range pairs {
		ts, tt := pr[0], pr[1]
		res, err := core.GALS(prob, ts, tt, published)
		if err != nil {
			return nil, fmt.Errorf("bench: GALS Ts=%g Tt=%g: %w", ts, tt, err)
		}
		if _, err := route.VerifyMultiClock(res.Path, prob.Grid, prob.Model, ts, tt); err != nil {
			return nil, fmt.Errorf("bench: Ts=%g Tt=%g failed verification: %w", ts, tt, err)
		}
		rep.Rows = append(rep.Rows, TableIIIRow{
			Ts: ts, Tt: tt,
			Buffers: res.Buffers, RegT: res.RegT, RegS: res.RegS,
			LatencyPS: res.Latency,
			Configs:   res.Stats.Configs,
			Time:      res.Stats.Elapsed,
		})
	}
	return rep, nil
}

// Write renders the table in the paper's layout (one column per pair) with
// the published values below for comparison.
func (r *TableIIIReport) Write(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	line := func(label string, f func(TableIIIRow) string) {
		s := label + "\t"
		for _, row := range r.Rows {
			s += f(row) + "\t"
		}
		fmt.Fprintln(tw, s)
	}
	line("Ts", func(x TableIIIRow) string { return fmt.Sprintf("%.0f", x.Ts) })
	line("Tt", func(x TableIIIRow) string { return fmt.Sprintf("%.0f", x.Tt) })
	line("Buffers", func(x TableIIIRow) string { return fmt.Sprintf("%d", x.Buffers) })
	line("Reg-t", func(x TableIIIRow) string { return fmt.Sprintf("%d", x.RegT) })
	line("Reg-s", func(x TableIIIRow) string { return fmt.Sprintf("%d", x.RegS) })
	line("latency", func(x TableIIIRow) string { return fmt.Sprintf("%.0f", x.LatencyPS) })
	line("time(s)", func(x TableIIIRow) string { return fmt.Sprintf("%.2f", x.Time.Seconds()) })
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\npaper (Table III):")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	paper := PaperTableIII()
	pline := func(label string, f func(PaperTableIIIRow) string) {
		s := label + "\t"
		for _, row := range paper {
			s += f(row) + "\t"
		}
		fmt.Fprintln(tw, s)
	}
	pline("Ts", func(x PaperTableIIIRow) string { return fmt.Sprintf("%.0f", x.Ts) })
	pline("Tt", func(x PaperTableIIIRow) string { return fmt.Sprintf("%.0f", x.Tt) })
	pline("Buffers", func(x PaperTableIIIRow) string { return fmt.Sprintf("%d", x.Buffers) })
	pline("Reg-t", func(x PaperTableIIIRow) string { return fmt.Sprintf("%d", x.RegT) })
	pline("Reg-s", func(x PaperTableIIIRow) string { return fmt.Sprintf("%d", x.RegS) })
	pline("latency", func(x PaperTableIIIRow) string { return fmt.Sprintf("%.0f", x.LatencyPS) })
	return tw.Flush()
}
