package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads: the run
// length, the workloads, and each metric's name, unit, direction and bound.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadBenchmark reads BENCHMARK.json from the repository root.
func loadBenchmark() (*benchmarkFile, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("perfbench: run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("perfbench: BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// steadyMain runs each workload --runs times per set, each run a separate
// process on its own seed and BENCHMARK.json's run_seconds, and reports
// every end-to-end metric's median, quartiles and spread (IQR / median)
// against its bound. With --sets 2 it also reports how far the second
// set's median moved from the first's in the metric's worse direction: the
// two-set agreement criterion. The sets alternate run by run, so a host
// that changes speed mid-session affects both alike.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload per set")
	sets := fs.Int("sets", 1, "independent sets of runs (2 checks agreement)")
	only := fs.String("workloads", "", "comma-separated workloads (empty: all in BENCHMARK.json)")
	seed0 := fs.Int64("seed0", 100, "first seed; run r of set s uses seed0 + s*runs + r")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bf, err := loadBenchmark()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	} else {
		for _, w := range bf.Workloads {
			names = append(names, w.Name)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}
	// values[set][workload][metric] lists every run's value; no run is
	// dropped or retried, and a failed run is reported as such.
	values := make([]map[string]map[string][]float64, *sets)
	for s := range values {
		values[s] = map[string]map[string][]float64{}
	}
	bad := 0
	for r := 0; r < *runs; r++ {
		for s := 0; s < *sets; s++ {
			seed := *seed0 + int64(s**runs+r)
			for _, name := range names {
				res, err := runChild(exe, name, seed, bf.RunSeconds)
				if err != nil {
					bad++
					fmt.Printf("set %d run %d %s seed %d: FAILED: %v\n", s+1, r+1, name, seed, err)
					continue
				}
				if values[s][name] == nil {
					values[s][name] = map[string][]float64{}
				}
				var row []string
				for _, m := range bf.EndToEnd {
					v := res.Metrics[m.Name].Value
					values[s][name][m.Name] = append(values[s][name][m.Name], v)
					row = append(row, fmt.Sprintf("%s=%.6g", m.Name, v))
				}
				fmt.Printf("set %d run %d %s seed %d: attempted %d failed %d %s\n",
					s+1, r+1, name, seed, res.Attempted, res.Failed, strings.Join(row, " "))
			}
		}
	}
	fmt.Println()
	fmt.Printf("%-13s %-20s %4s %12s %12s %12s %8s %6s %s\n", "workload", "metric", "set", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, name := range names {
		for _, m := range bf.EndToEnd {
			var medians []float64
			for s := 0; s < *sets; s++ {
				xs := values[s][name][m.Name]
				q1, q2, q3 := quartiles(xs)
				spread := (q3 - q1) / q2
				verdict := "steady (< bound/3)"
				switch {
				case len(xs) < *runs:
					verdict = "MISSING RUNS"
				case !(spread <= m.Bound):
					verdict = "TOO NOISY (> bound)"
				case spread > m.Bound/3:
					verdict = "within bound, > bound/3"
				}
				fmt.Printf("%-13s %-20s %4d %12.6g %12.6g %12.6g %7.2f%% %5.0f%% %s\n",
					name, m.Name, s+1, q2, q1, q3, 100*spread, 100*m.Bound, verdict)
				medians = append(medians, q2)
			}
			if len(medians) == 2 {
				worse := (medians[1] - medians[0]) / medians[0]
				if m.Better == "higher" {
					worse = -worse
				}
				verdict := "agree"
				if !(worse <= m.Bound) {
					verdict = "DISAGREE"
				}
				fmt.Printf("%-13s %-20s %4s %+11.2f%% worse in set 2 vs bound %.0f%%: %s\n",
					name, m.Name, "1→2", 100*worse, 100*m.Bound, verdict)
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d runs failed\n", bad)
		return 1
	}
	return 0
}

// runChild runs one benchmark invocation and parses its result line.
func runChild(exe, name string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err == nil {
			err = jerr
		}
		return nil, err
	}
	if err != nil || !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("run not correct (failed %d): %v", res.Failed, err)
	}
	return &res, nil
}
