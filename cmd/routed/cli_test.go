package main

import (
	"bytes"
	"errors"
	"image/png"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runCLI runs one routed subcommand in-process and returns its exit
// status and output.
func runCLI(args ...string) (code int, stdout, stderr string) {
	run := map[string]func([]string, io.Writer, io.Writer) int{
		"route": runRoute, "plan": runPlan, "tables": runTables,
	}[args[0]]
	var out, errOut bytes.Buffer
	code = run(args[1:], &out, &errOut)
	return code, out.String(), errOut.String()
}

// timing matches the wall-clock fields of the reports, the only output
// that differs between two runs.
var timing = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`(?m)^(configs .*, )\S+$`), "${1}<elapsed>"},
	{regexp.MustCompile(`wall \S+`), "wall <elapsed>"},
	{regexp.MustCompile(`(?m)^(\s*time\(s\)).*$`), "${1} <elapsed>"},
	// Table I's per-row time(s) column, the 11th of its 14.
	{regexp.MustCompile(`(?m)^(\s*(?:inf|\d+)(?:\s+\S+){9}\s+)\d+\.\d\d((?:\s+\S+){3})$`), "${1}<elapsed>${2}"},
	{regexp.MustCompile(`\(regenerated in [^)]*\)`), "(regenerated in <elapsed>)"},
}

func maskTiming(s string) string {
	for _, m := range timing {
		s = m.re.ReplaceAllString(s, m.repl)
	}
	return s
}

// TestCLIGoldens compares each subcommand's report with the output of the
// single-purpose command it replaced (rbp, wavefront, galsroute,
// latchroute, planner, route, tables), captured before the fold, timing
// masked. Two goldens are assembled from those commands: the Fig. 6 case
// is rbp's report and map followed by wavefront's visits per wave, both
// run with the A* bounds off as rendering now does; the -config cases
// keep route's table rows under planner's summary lines, whose counts
// come from the same planner run over the same instance. tables-1-reduced
// was captured from routed itself before RBP and GALS moved onto one
// wavefront engine; its Configs and MaxQ columns pin the bounds-off effort
// of the published algorithm.
func TestCLIGoldens(t *testing.T) {
	demo := filepath.Join("testdata", "demo-plan.json")
	dups := filepath.Join("testdata", "dup-plan.json")
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"route-rbp", []string{"route"}},
		{"route-fig6", []string{"route", "-grid", "61x25", "-pitch", "0.5", "-src", "2,12", "-dst", "58,12", "-period", "300", "-render"}},
		{"route-gals", []string{"route", "-kind", "gals", "-ts", "300", "-tt", "250", "-simulate", "20"}},
		{"route-latch", []string{"route", "-kind", "latch", "-grid", "41x5", "-pitch", "0.5", "-src", "0,2", "-dst", "40,2",
			"-period", "760", "-regblock", "1,0,10,5", "-regblock", "11,0,30,5"}},
		{"plan-workers1", []string{"plan", "-workers", "1"}},
		{"plan-workers2", []string{"plan", "-workers", "2"}},
		// demo-plan.json asks for 2 workers, overriding the -workers default.
		{"plan-config", []string{"plan", "-config", demo}},
		{"plan-config-exclusive", []string{"plan", "-config", demo, "-exclusive"}},
		// dup-plan.json's last three nets are renamed copies of its first
		// three (an RBP net, a GALS net and a net over a 3-width ladder).
		// Planned independently, each copy reports its twin's row and
		// effort; planned exclusively, each copy finds its endpoints taken
		// by its twin's registers and fails, so routed exits 1.
		{"plan-config-dups", []string{"plan", "-config", dups}},
		{"plan-config-dups-exclusive", []string{"plan", "-config", dups, "-exclusive"}},
		{"tables-1-reduced", []string{"tables", "-table", "1", "-scale", "reduced"}},
		{"tables-3-reduced", []string{"tables", "-table", "3", "-scale", "reduced"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			t.Parallel()
			code, out, errOut := runCLI(c.args...)
			raw, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			// routed exits 1 exactly when a net of the report failed.
			wantCode := 0
			if strings.Contains(string(raw), "FAILED:") {
				wantCode = 1
			}
			if code != wantCode {
				t.Fatalf("routed %s: exit %d, want %d\n%s", strings.Join(c.args, " "), code, wantCode, errOut)
			}
			got, want := strings.Split(maskTiming(out), "\n"), strings.Split(maskTiming(string(raw)), "\n")
			for i := 0; i < len(got) || i < len(want); i++ {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				if g != w {
					t.Fatalf("routed %s: line %d differs\n got: %q\nwant: %q\nfull output:\n%s",
						strings.Join(c.args, " "), i+1, g, w, out)
				}
			}
		})
	}
}

// TestTablesPaperScale is the comparison behind make tables-check: the
// target writes a fresh `routed tables -table all -scale paper` to
// tables-check.txt at the repository root, and every line must match
// tables_paper_scale.txt once maskTiming drops the timings. Columns are
// compared field by field, since Tables II and III pad every column to
// its widest cell, time(s) included. Without a fresh file the test
// skips, so go test ./... never pays the two minutes of paper-scale
// tables.
func TestTablesPaperScale(t *testing.T) {
	fresh, err := os.ReadFile(filepath.Join("..", "..", "tables-check.txt"))
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no tables-check.txt; make tables-check writes it")
	}
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "tables_paper_scale.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got, want := strings.Split(maskTiming(string(fresh)), "\n"), strings.Split(maskTiming(string(raw)), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if strings.Join(strings.Fields(g), " ") != strings.Join(strings.Fields(w), " ") {
			t.Fatalf("paper-scale tables: line %d differs\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

// TestRouteRenderDrawsFigure6Rings checks that -render and -png draw the
// published expansion on the Fig. 6 instance: every wave 0–6 reaches
// nodes off the routed row, where the bounded search visits only the row.
func TestRouteRenderDrawsFigure6Rings(t *testing.T) {
	pngPath := filepath.Join(t.TempDir(), "fig6.png")
	code, out, errOut := runCLI("route", "-grid", "61x25", "-pitch", "0.5", "-src", "2,12", "-dst", "58,12",
		"-period", "300", "-render", "-png", pngPath)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut)
	}
	seen := map[rune]bool{}
	for _, line := range strings.Split(out, "\n") {
		if len(line) != 61 || strings.ContainsRune(line, 'S') {
			continue // not a map row, or the routed row
		}
		for _, r := range line {
			seen[r] = true
		}
	}
	for _, d := range "0123456" {
		if !seen[d] {
			t.Errorf("wave %c never reached a node off the routed row:\n%s", d, out)
		}
	}
	f, err := os.Open(pngPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := png.Decode(f); err != nil {
		t.Errorf("-png wrote no valid PNG: %v", err)
	}
}

// TestBadFlagsAreUsageErrors feeds invalid flag sets to every subcommand
// and kind: each must exit 2 with every failure under "invalid flags:",
// before any file is created or any search runs — never a panic, never a
// trace or PNG file.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	demo := filepath.Join("testdata", "demo-plan.json")
	for _, c := range []struct {
		name string
		args []string
		want []string // substrings of stderr
	}{
		{"rbp off-grid src", []string{"route", "-src", "500,500", "-trace", "TMP/t.jsonl"}, []string{"-src point 500,500 outside"}},
		{"gals off-grid src", []string{"route", "-kind", "gals", "-src", "500,500", "-trace", "TMP/t.jsonl"}, []string{"-src point 500,500 outside"}},
		{"latch off-grid src", []string{"route", "-kind", "latch", "-src", "500,500"}, []string{"-src point 500,500 outside"}},
		{"fastpath off-grid dst", []string{"route", "-kind", "fastpath", "-dst", "101,0"}, []string{"-dst point 101,0 outside"}},
		{"png with zero cell", []string{"route", "-png", "TMP/f.png", "-cell", "0"}, []string{"-cell must be positive"}},
		{"simulate with zero depth", []string{"route", "-kind", "gals", "-simulate", "5", "-fifodepth", "0"}, []string{"-fifodepth must be positive"}},
		{"gals flag on rbp", []string{"route", "-kind", "rbp", "-simulate", "5"}, []string{"-simulate: does not apply to -kind rbp"}},
		{"rbp flags on latch", []string{"route", "-kind", "latch", "-render", "-png", "TMP/f.png"},
			[]string{"-render: does not apply to -kind latch", "-png: does not apply to -kind latch"}},
		{"period on gals", []string{"route", "-kind", "gals", "-period", "300"}, []string{"-period: does not apply to -kind gals"}},
		{"maxcycles on fastpath", []string{"route", "-kind", "fastpath", "-maxcycles", "3"}, []string{"-maxcycles: does not apply"}},
		{"garbage", []string{"route", "-grid", "1x0", "-pitch", "-1", "-src", "5,5", "-dst", "5,5", "-trace", "TMP/t.jsonl"},
			[]string{"-grid grid 1x0 too small", "-pitch must be positive", "must differ"}},
		{"unparsable points", []string{"route", "-grid", "axb", "-src", "x", "-dst", "1,2,3"}, []string{"-grid: ", "-src: ", "-dst: "}},
		{"unknown kind", []string{"route", "-kind", "bogus"}, []string{"-kind must be one of"}},
		{"bad numbers", []string{"route", "-kind", "latch", "-period", "0", "-maxcycles", "-1", "-timeout", "-1s"},
			[]string{"-period must be positive", "-maxcycles must not be negative", "-timeout must not be negative"}},
		{"bad gals periods", []string{"route", "-kind", "gals", "-ts", "0", "-tt", "-5"}, []string{"-ts must be positive", "-tt must be positive"}},
		{"bad faultpoints", []string{"route", "-faultpoints", "bogus", "-trace", "TMP/t.jsonl"}, []string{"-faultpoints: "}},
		{"too many grid nodes", []string{"route", "-grid", "2000x2000", "-dst", "1999,1999", "-trace", "TMP/t.jsonl"}, []string{"limit"}},
		{"config with floorplan flags", []string{"plan", "-config", demo, "-pitch", "0.125", "-random", "3", "-seed", "2", "-clock", "400"},
			[]string{"-pitch: does not apply with -config", "-clock: ", "-random: ", "-seed: "}},
		{"plan numbers", []string{"plan", "-workers", "-1", "-clock", "0", "-timeout", "-1s", "-trace", "TMP/t.jsonl"},
			[]string{"-workers must not be negative", "-clock must be positive", "-timeout must not be negative"}},
		{"tables choices", []string{"tables", "-table", "4", "-scale", "huge", "-format", "xml"},
			[]string{"-table must be one of", "-scale must be one of", "-format must be one of"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			args := make([]string, len(c.args))
			for i, a := range c.args {
				args[i] = strings.ReplaceAll(a, "TMP", dir)
			}
			code, out, errOut := runCLI(args...)
			if code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if out != "" {
				t.Errorf("stdout not empty:\n%s", out)
			}
			if strings.Contains(errOut, "panic:") || !strings.Contains(errOut, "invalid flags:") {
				t.Errorf("stderr lacks an invalid flags block:\n%s", errOut)
			}
			for _, w := range c.want {
				if !strings.Contains(errOut, w) {
					t.Errorf("stderr lacks %q:\n%s", w, errOut)
				}
			}
			if ents, err := os.ReadDir(dir); err != nil || len(ents) > 0 {
				t.Errorf("files created: %v %v", ents, err)
			}
		})
	}
}

// TestVariantFlagIsUnknown checks that the retired -variant flag is
// rejected like any flag route never defined. The flag package exits the
// process on an unknown flag, so the route runs in a child process of the
// test binary.
func TestVariantFlagIsUnknown(t *testing.T) {
	if os.Getenv("ROUTED_TEST_CHILD") == "1" {
		os.Exit(runRoute([]string{"-variant", "array"}, io.Discard, os.Stderr))
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestVariantFlagIsUnknown$")
	cmd.Env = append(os.Environ(), "ROUTED_TEST_CHILD=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("route -variant array: err %v, want exit 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "flag provided but not defined: -variant") {
		t.Errorf("route -variant array: no unknown-flag message:\n%s", out)
	}
}
