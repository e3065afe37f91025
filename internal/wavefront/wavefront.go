// Package wavefront records and renders the wave-front expansion of the
// RBP/GALS searches (the Fig. 6 visualization of the paper): which wave
// first reached every grid node, rendered as an ASCII map with the final
// path overlaid.
package wavefront

import (
	"fmt"
	"io"

	"clockroute/internal/candidate"
	"clockroute/internal/grid"
	"clockroute/internal/route"
)

// Recorder implements core.Tracer, remembering the first wave that visited
// each node.
type Recorder struct {
	g         *grid.Grid
	firstWave []int
	perWave   []int
	latencies []float64
}

// NewRecorder builds a recorder over g.
func NewRecorder(g *grid.Grid) *Recorder {
	fw := make([]int, g.NumNodes())
	for i := range fw {
		fw[i] = -1
	}
	return &Recorder{g: g, firstWave: fw}
}

// WaveStart implements core.Tracer.
func (r *Recorder) WaveStart(wave int, latency float64) {
	for len(r.perWave) <= wave {
		r.perWave = append(r.perWave, 0)
		r.latencies = append(r.latencies, 0)
	}
	r.latencies[wave] = latency
}

// Visit implements core.Tracer.
func (r *Recorder) Visit(wave, node int) {
	for len(r.perWave) <= wave {
		r.perWave = append(r.perWave, 0)
		r.latencies = append(r.latencies, 0)
	}
	r.perWave[wave]++
	if r.firstWave[node] == -1 {
		r.firstWave[node] = wave
	}
}

// Waves returns the number of waves observed.
func (r *Recorder) Waves() int { return len(r.perWave) }

// waveSymbol maps a wave index to a single display rune.
func waveSymbol(w int) byte {
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	if w < len(digits) {
		return digits[w]
	}
	return '+'
}

// Render writes an ASCII map of the expansion, one character per node, row
// Y=max at the top. Legend:
//
//	0-9a-z  first wave that reached the node ('+' beyond 35)
//	.       never reached
//	#       physical obstacle (no insertion)
//	=       isolated by a wiring blockage
//	S T     path endpoints; B R F  buffer/register/MCFIFO on the path
//
// path may be nil to render the expansion alone.
func (r *Recorder) Render(w io.Writer, path *route.Path) error {
	overlay := map[int]byte{}
	if path != nil {
		for i, n := range path.Nodes {
			switch g := path.Gates[i]; {
			case i == 0:
				overlay[n] = 'S'
			case i == len(path.Nodes)-1:
				overlay[n] = 'T'
			case g == candidate.GateRegister:
				overlay[n] = 'R'
			case g == candidate.GateFIFO:
				overlay[n] = 'F'
			case g >= 0:
				overlay[n] = 'B'
			default:
				if _, taken := overlay[n]; !taken {
					overlay[n] = '*'
				}
			}
		}
	}
	line := make([]byte, r.g.W())
	for y := r.g.H() - 1; y >= 0; y-- {
		for x := 0; x < r.g.W(); x++ {
			id := y*r.g.W() + x
			switch {
			case overlay[id] != 0:
				line[x] = overlay[id]
			case r.g.Degree(id) == 0:
				line[x] = '='
			case !r.g.Insertable(id):
				line[x] = '#'
			case r.firstWave[id] >= 0:
				line[x] = waveSymbol(r.firstWave[id])
			default:
				line[x] = '.'
			}
		}
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return err
		}
	}
	return nil
}

// Summary writes one line per wave: index, latency label, and visit count —
// the numeric counterpart of the Fig. 6 rings.
func (r *Recorder) Summary(w io.Writer) error {
	for i := range r.perWave {
		if _, err := fmt.Fprintf(w, "wave %2d  latency %8.0f ps  visits %d\n",
			i, r.latencies[i], r.perWave[i]); err != nil {
			return err
		}
	}
	return nil
}
