package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"clockroute/internal/bench"
	"clockroute/internal/cliutil"
	"clockroute/internal/tech"
)

// runTables implements `routed tables`, which regenerates the paper's
// evaluation tables:
//
//	routed tables -table all -scale paper > tables_paper_scale.txt
//	routed tables -table 1 -scale reduced     # quick 4×-coarser run
//	routed tables -table sweep -format csv    # latency-vs-period series
//
// Paper scale matches Section V: a 25×25 mm die, source and sink 40 mm
// apart, grids of 50×50 / 100×100 / 200×200 cells, and the register-count
// targets of Table I. Expect a few minutes for -table all at paper scale.
func runTables(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("routed tables", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		table     = fs.String("table", "all", "which to regenerate: 1 | 2 | 3 | all | sweep")
		scale     = fs.String("scale", "paper", "experiment scale: paper | reduced")
		format    = fs.String("format", "text", "output format: text | csv")
		sweepLo   = fs.Float64("sweep-lo", 100, "sweep: lowest period in ps")
		sweepHi   = fs.Float64("sweep-hi", 1500, "sweep: highest period in ps")
		sweepStep = fs.Float64("sweep-step", 50, "sweep: period step in ps")
	)
	fs.Parse(args)
	var v cliutil.Validator
	v.OneOf("table", *table, "1", "2", "3", "all", "sweep")
	v.OneOf("scale", *scale, "paper", "reduced")
	v.OneOf("format", *format, "text", "csv")
	if err := v.Err(); err != nil {
		return invalid(fs, err)
	}
	csvOut := *format == "csv"

	s, targets := bench.PaperScale(), bench.RegisterTargets
	if *scale == "reduced" {
		s, targets = bench.ReducedScale(), []int{1, 2, 3, 5, 7, 9, 39, 79}
	}
	tc := tech.CongPan70nm()

	// report is what each of Tables I-III builds.
	type report interface {
		Write(io.Writer) error
		WriteCSV(io.Writer) error
	}
	// runTable prints one table: its CSV alone, or the heading, the report and
	// the time it took (gap separates the last two).
	runTable := func(heading, gap string, build func() (report, error)) func() error {
		return func() error {
			start := time.Now()
			rep, err := build()
			if err != nil {
				return err
			}
			if csvOut {
				return rep.WriteCSV(stdout)
			}
			fmt.Fprint(stdout, heading)
			if err := rep.Write(stdout); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s(regenerated in %v)\n\n", gap, time.Since(start).Round(time.Millisecond))
			return nil
		}
	}
	w, h := s.GridDims()
	runI := runTable(fmt.Sprintf("== Table I: RBP statistics as a function of the clock period ==\n"+
		"grid %dx%d, pitch %g mm, source/sink %d edges apart\n\n", w, h, s.PitchMM, s.EdgesApart()), "\n",
		func() (report, error) { return bench.TableI(tc, s, targets) })
	runII := runTable("== Table II: RBP as a function of clock period and grid size ==\n\n", "",
		func() (report, error) {
			pitches := []float64{0.5, 0.25, 0.125}
			if *scale == "reduced" {
				pitches = []float64{1.0, 0.5}
			}
			return bench.TableII(tc, s, pitches, targets)
		})
	runIII := runTable("== Table III: GALS for different clock-domain periods ==\n\n", "\n",
		func() (report, error) { return bench.TableIII(tc, s, bench.TableIIIPairs()) })
	runSweep := func() error {
		start := time.Now()
		sw, err := bench.SweepPeriods(tc, s, *sweepLo, *sweepHi, *sweepStep)
		if err != nil {
			return err
		}
		if csvOut {
			return sw.WriteCSV(stdout)
		}
		fmt.Fprintf(stdout, "== Latency vs clock period sweep [%g, %g] step %g ==\n\n", *sweepLo, *sweepHi, *sweepStep)
		if err := sw.WriteCSV(stdout); err != nil {
			return err
		}
		if lat, period, ok := sw.MinLatency(); ok {
			fmt.Fprintf(stdout, "\nbest latency %.0f ps at T = %.0f ps\n", lat, period)
		}
		fmt.Fprintf(stdout, "(regenerated in %v)\n", time.Since(start).Round(time.Millisecond))
		return nil
	}

	runs := map[string][]func() error{
		"1": {runI}, "2": {runII}, "3": {runIII}, "sweep": {runSweep},
		"all": {runI, runII, runIII},
	}[*table]
	for _, run := range runs {
		if err := run(); err != nil {
			fmt.Fprintln(stderr, "routed tables:", err)
			return 1
		}
	}
	return 0
}
