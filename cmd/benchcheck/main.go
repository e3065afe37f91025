// Command benchcheck is the perf-regression gate behind make bench-check:
// it compares a fresh `go test -json` benchmark stream against the
// checked-in BENCH_core.json baseline and exits non-zero when either
//
//   - configs/op or probe_configs/op regressed by more than the tolerance
//     (default 5%) on any benchmark present in both files — the search, or
//     the incumbent probe ahead of it, did more work for the same answer, or
//   - a routed-result fingerprint metric (registers/op, latency_ps)
//     differs at all — the answer itself drifted, which the equivalence
//     sweeps treat as a correctness failure, not a perf one, or
//   - B/op grew by more than the tolerance on a row whose every pass
//     starts on a fresh search scratch (BenchmarkShortSearchesDroppedPool):
//     what one fresh scratch costs.
//
// Wall-clock time is deliberately not compared: ns/op is machine- and
// load-dependent, while both config counts are deterministic effort
// counts. So are a fresh-scratch row's bytes at a fixed -benchtime; a warm
// row's are not, since a GC that empties the scratch pool mid-run makes
// them bimodal. A unit missing from either file is not compared, so a
// baseline recorded before a unit existed still gates the others.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// metrics maps a unit ("configs/op") to its reported value for one
// benchmark name.
type metrics map[string]float64

// effortUnits may grow by at most the tolerance; exactUnits must match the
// baseline bit-for-bit — they fingerprint the routed result rather than
// the effort spent producing it.
var (
	effortUnits = []string{"configs/op", "probe_configs/op"}
	exactUnits  = []string{"registers/op", "latency_ps"}
)

// freshRow also gates B/op like an effort unit. Its bytes depend on
// -benchtime (the first pass also grows caches later passes reuse), so it
// must run at the baseline's.
const freshRow = "BenchmarkShortSearchesDroppedPool"

// parseBench extracts benchmark result lines from a `go test -json`
// stream. A single result line is typically split across two Output
// events — the name when the benchmark starts, the metrics when it
// finishes — so events are concatenated and split on real newlines. The
// -N GOMAXPROCS suffix is stripped so runs from different hosts compare.
func parseBench(path string) (map[string]metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows := make(map[string]metrics)
	var buf strings.Builder
	dec := json.NewDecoder(f)
	for {
		var ev struct{ Action, Output string }
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if ev.Action != "output" {
			continue
		}
		buf.WriteString(ev.Output)
		if !strings.Contains(ev.Output, "\n") {
			continue
		}
		lines := strings.Split(buf.String(), "\n")
		buf.Reset()
		buf.WriteString(lines[len(lines)-1]) // keep the trailing partial line
		for _, line := range lines[:len(lines)-1] {
			parseBenchLine(rows, line)
		}
	}
	parseBenchLine(rows, buf.String())
	return rows, nil
}

// parseBenchLine folds one complete output line into rows if it is a
// benchmark result ("BenchmarkName-N  iters  value unit  value unit ...").
func parseBenchLine(rows map[string]metrics, line string) {
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, "Benchmark") {
		return
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	m := rows[name]
	if m == nil {
		m = make(metrics)
		rows[name] = m
	}
	for i := 2; i+1 < len(fields); i += 2 {
		if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
			m[fields[i+1]] = v
		}
	}
}

func main() {
	baseline := flag.String("baseline", "BENCH_core.json", "recorded baseline (go test -json stream)")
	current := flag.String("current", "bench-check.json", "fresh run to check (go test -json stream)")
	tolerance := flag.Float64("tolerance", 0.05, "allowed fractional configs/op, probe_configs/op and fresh-scratch B/op regression")
	flag.Parse()

	base, err := parseBench(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	cur, err := parseBench(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(cur))
	for name := range cur {
		if _, ok := base[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	compared, failed := 0, false
	for _, name := range names {
		b, c := base[name], cur[name]
		_, bok := b["configs/op"]
		_, cok := c["configs/op"]
		if !bok || !cok {
			continue
		}
		compared++
		units := effortUnits
		if name == freshRow {
			units = append(slices.Clip(units), "B/op")
		}
		for _, unit := range units {
			bv, bok := b[unit]
			cv, cok := c[unit]
			if !bok || !cok {
				continue
			}
			if cv > bv*(1+*tolerance) {
				fmt.Printf("FAIL %s: %s %g exceeds baseline %g by more than %.0f%%\n",
					name, unit, cv, bv, *tolerance*100)
				failed = true
			} else {
				fmt.Printf("ok   %s: %s %g (baseline %g)\n", name, unit, cv, bv)
			}
		}
		for _, unit := range exactUnits {
			bv, bok := b[unit]
			cv, cok := c[unit]
			if !bok || !cok {
				continue
			}
			if cv != bv {
				fmt.Printf("FAIL %s: %s drifted from baseline: got %g, recorded %g\n", name, unit, cv, bv)
				failed = true
			}
		}
	}
	if compared == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: no benchmark appears in both %s and %s with configs/op\n",
			*baseline, *current)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("bench-check ok: %d benchmarks within %.0f%% of baseline, results identical\n",
		compared, *tolerance*100)
}
