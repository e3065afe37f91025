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

// TableIRow mirrors one row of Table I: RBP statistics as a function of the
// clock period. The first row (PeriodPS = +Inf) is the Fast Path baseline,
// whose Latency column is the minimum buffered path delay.
type TableIRow struct {
	PeriodPS   float64
	LatencyPS  float64
	Registers  int
	Buffers    int
	MaxRegSep  int // grid points between successive registers; -1 if n/a
	MinRegSep  int
	MaxElemSep int // between successive inserted elements of any kind
	MinElemSep int
	Configs    int
	MaxQSize   int
	Time       time.Duration
}

// TableIReport is the regenerated Table I.
type TableIReport struct {
	Scale Scale
	Rows  []TableIRow
}

// TableI regenerates Table I on the given scale: the Fast Path row followed
// by one RBP row per register target. Every row's path is re-checked by the
// independent verifier before being reported.
func TableI(tc *tech.Tech, s Scale, targets []int) (*TableIReport, error) {
	prob, err := s.Build(tc)
	if err != nil {
		return nil, err
	}
	rep := &TableIReport{Scale: s}

	fp, err := core.FastPath(prob, published)
	if err != nil {
		return nil, fmt.Errorf("bench: fast path: %w", err)
	}
	rep.Rows = append(rep.Rows, rowFromResult(math.Inf(1), fp))

	periods, _, err := FastestPeriods(tc, s, targets)
	if err != nil {
		return nil, err
	}
	for _, T := range periods {
		res, err := core.RBP(prob, T, published)
		if err != nil {
			return nil, fmt.Errorf("bench: RBP at T=%g: %w", T, err)
		}
		if _, err := route.VerifySingleClock(res.Path, prob.Grid, prob.Model, T); err != nil {
			return nil, fmt.Errorf("bench: T=%g failed verification: %w", T, err)
		}
		rep.Rows = append(rep.Rows, rowFromResult(T, res))
	}
	return rep, nil
}

func rowFromResult(T float64, res *core.Result) TableIRow {
	row := TableIRow{
		PeriodPS:  T,
		LatencyPS: res.Latency,
		Registers: res.Registers,
		Buffers:   res.Buffers,
		Configs:   res.Stats.Configs,
		MaxQSize:  res.Stats.MaxQSize,
		Time:      res.Stats.Elapsed,
		MaxRegSep: -1, MinRegSep: -1, MaxElemSep: -1, MinElemSep: -1,
	}
	if sep, ok := res.Path.RegisterSeparation(); ok {
		row.MaxRegSep, row.MinRegSep = sep.Max, sep.Min
	}
	if sep, ok := res.Path.ElementSeparation(); ok {
		row.MaxElemSep, row.MinElemSep = sep.Max, sep.Min
	}
	return row
}

func fmtPeriod(T float64) string {
	if math.IsInf(T, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.0f", T)
}

func fmtSep(v int) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

// Write renders the table, with the paper's published values interleaved
// for latency/registers/buffers where a published row with the same
// register count exists.
func (r *TableIReport) Write(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "T(ps)\tLatency\tRegs\tBufs\tMaxRegSep\tMinRegSep\tMaxR/BSep\tMinR/BSep\tConfigs\tMaxQ\ttime(s)\tpaper:T\tpaper:Lat\tpaper:Regs\t")
	for _, row := range r.Rows {
		paper := paperTableIByRegs(row.Registers, math.IsInf(row.PeriodPS, 1))
		pT, pLat, pRegs := "-", "-", "-"
		if paper != nil {
			pT, pLat, pRegs = fmtPeriod(paper.PeriodPS), fmt.Sprintf("%.0f", paper.LatencyPS), fmt.Sprintf("%d", paper.Registers)
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%d\t%d\t%s\t%s\t%s\t%s\t%d\t%d\t%.2f\t%s\t%s\t%s\t\n",
			fmtPeriod(row.PeriodPS), row.LatencyPS, row.Registers, row.Buffers,
			fmtSep(row.MaxRegSep), fmtSep(row.MinRegSep),
			fmtSep(row.MaxElemSep), fmtSep(row.MinElemSep),
			row.Configs, row.MaxQSize, row.Time.Seconds(),
			pT, pLat, pRegs)
	}
	return tw.Flush()
}
