package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// statsLine renders every Stats field but the wall time as name=value
// pairs, so a field added to Stats is pinned by every golden that uses it.
func statsLine(s Stats) string {
	v := reflect.ValueOf(s)
	var b strings.Builder
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; name != "Elapsed" {
			fmt.Fprintf(&b, " %s=%v", name, v.Field(i).Interface())
		}
	}
	return b.String()[1:]
}

// ftoa prints a float exactly: the shortest form that parses back to it.
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// checkGolden compares got with testdata/name line by line.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s: line %d differs\n got: %s\nwant: %s", name, i+1, gl, wl)
		}
	}
}

// TestFastPathStatsGolden pins FastPath's answer and whole effort (every
// Stats field but Elapsed) on TestKernelsNeverRebase's 120 sweep
// instances, bounds on and off, against testdata/fastpath-stats.golden.
// The equivalence sweeps compare bounded with unbounded answers only, so
// this is the check that the effort of each arm stays put.
func TestFastPathStatsGolden(t *testing.T) {
	var b strings.Builder
	for _, stream := range []struct {
		seed int64
		draw func(*rand.Rand) *sweepCase
	}{{20260807, randomSweepCase}, {0x7ec5, randomTechCase}} {
		rng := rand.New(rand.NewSource(stream.seed))
		for built := 0; built < 60; {
			c := stream.draw(rng)
			if c == nil {
				continue
			}
			built++
			for _, opts := range []Options{{}, {DisableBounds: true}} {
				fmt.Fprintf(&b, "%#x/%d bounds=%t: ", stream.seed, built-1, !opts.DisableBounds)
				res, err := FastPath(c.p, opts)
				switch {
				case errors.Is(err, ErrNoPath):
					b.WriteString("no path\n")
				case err != nil:
					t.Fatalf("seed %#x instance %d: %v", stream.seed, built-1, err)
				default:
					fmt.Fprintf(&b, "latency=%s buffers=%d path=%v %s %s\n", ftoa(res.Latency), res.Buffers,
						res.Path.Nodes, res.Path, statsLine(res.Stats))
				}
			}
		}
	}
	checkGolden(t, "fastpath-stats.golden", b.String())
}
