package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"clockroute/internal/core"
	"clockroute/internal/tech"
)

// paperPeriods are the 13 clocked Table I periods of
// tables_paper_scale.txt, the fastest period for each register count.
var paperPeriods = []float64{1366, 914, 683, 547, 463, 394, 342, 261, 79, 58, 52, 39, 32}

// TestPaperScaleBoundedGolden is the bounded arm of the paper tables: the
// fast-path row, the 13 Table I periods and the 7 Table III pairs routed
// at paper scale with the A* bounds on (the library default), against
// testdata/paper-bounded.golden. Each row pins the answer (latency,
// registers, buffers) and the effort (configs, probe configs, max Q), so
// a bound that loosens or an engine change that moves a counter fails
// here. tables_paper_scale.txt pins the same rows with the bounds off
// (make tables-check).
func TestPaperScaleBoundedGolden(t *testing.T) {
	p, err := PaperScale().Build(tech.CongPan70nm())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	row := func(name string, res *core.Result, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%-16s latency=%s registers=%d buffers=%d configs=%d probe_configs=%d max_q=%d\n",
			name, strconv.FormatFloat(res.Latency, 'g', -1, 64), res.Registers, res.Buffers,
			res.Stats.Configs, res.Stats.ProbeConfigs, res.Stats.MaxQSize)
	}
	res, err := core.FastPath(p, core.Options{})
	row("fastpath", res, err)
	for _, T := range paperPeriods {
		res, err := core.RBP(p, T, core.Options{})
		row(fmt.Sprintf("rbp T=%g", T), res, err)
	}
	for _, pair := range TableIIIPairs() {
		res, err := core.GALS(p, pair[0], pair[1], core.Options{})
		row(fmt.Sprintf("gals %g/%g", pair[0], pair[1]), res, err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "paper-bounded.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(raw) {
		t.Fatalf("paper-scale bounded rows differ from testdata/paper-bounded.golden\n got:\n%s\nwant:\n%s", got, raw)
	}
}
