package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"clockroute/internal/core"
	"clockroute/internal/route"
	"clockroute/internal/tech"
)

// SweepPoint is one sample of the latency-vs-period curve.
type SweepPoint struct {
	PeriodPS  float64
	Feasible  bool
	LatencyPS float64
	Cycles    int
	Registers int
	Buffers   int
	Configs   int
	Time      time.Duration
}

// Sweep is the dense latency-vs-period series — the line-chart form of
// Table I, sampled on an even period grid instead of at the per-register
// fastest periods. The curve is a descending staircase in cycles with a
// sawtooth latency envelope: latency jumps where the register count steps.
type Sweep struct {
	Scale  Scale
	Points []SweepPoint
}

// SweepPeriods samples RBP at every period in ps from lo to hi inclusive
// with the given step, verifying each feasible point.
func SweepPeriods(tc *tech.Tech, s Scale, lo, hi, step float64) (*Sweep, error) {
	if lo <= 0 || hi < lo || step <= 0 {
		return nil, fmt.Errorf("bench: bad sweep range [%g, %g] step %g", lo, hi, step)
	}
	prob, err := s.Build(tc)
	if err != nil {
		return nil, err
	}
	out := &Sweep{Scale: s}
	for T := lo; T <= hi+1e-9; T += step {
		pt := SweepPoint{PeriodPS: T}
		res, err := core.RBP(prob, T, published)
		if err == nil {
			if _, verr := route.VerifySingleClock(res.Path, prob.Grid, prob.Model, T); verr != nil {
				return nil, fmt.Errorf("bench: sweep T=%g failed verification: %w", T, verr)
			}
			pt.Feasible = true
			pt.LatencyPS = res.Latency
			pt.Cycles = res.Registers + 1
			pt.Registers = res.Registers
			pt.Buffers = res.Buffers
			pt.Configs = res.Stats.Configs
			pt.Time = res.Stats.Elapsed
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// MinLatency returns the sweep's best latency and the period achieving it.
func (s *Sweep) MinLatency() (latency, period float64, ok bool) {
	latency = math.Inf(1)
	for _, p := range s.Points {
		if p.Feasible && p.LatencyPS < latency {
			latency, period, ok = p.LatencyPS, p.PeriodPS, true
		}
	}
	return latency, period, ok
}

// WriteCSV emits the series for plotting.
func (s *Sweep) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"period_ps", "feasible", "latency_ps", "cycles", "registers", "buffers", "configs", "time_s",
	}); err != nil {
		return err
	}
	for _, p := range s.Points {
		rec := []string{fmtCSVPeriod(p.PeriodPS), strconv.FormatBool(p.Feasible)}
		if p.Feasible {
			rec = append(rec,
				strconv.FormatFloat(p.LatencyPS, 'f', 0, 64),
				strconv.Itoa(p.Cycles),
				strconv.Itoa(p.Registers),
				strconv.Itoa(p.Buffers),
				strconv.Itoa(p.Configs),
				fmt.Sprintf("%.4f", p.Time.Seconds()),
			)
		} else {
			rec = append(rec, "", "", "", "", "", "")
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
