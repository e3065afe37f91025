// Wavefront: visualize RBP's wave-by-wave expansion (the paper's Fig. 6).
// Each digit is the wave — i.e. the register count — whose expansion first
// reached that grid node; the final route is overlaid with S/R/B/T markers.
// The search runs as published, with the A* bounds off: they would prune
// the rings down to the routed row without changing the route.
package main

import (
	"fmt"
	"log"
	"os"

	"clockroute"
)

func run(title string, blocked bool) {
	g := clockroute.NewGrid(61, 25, 0.5)
	if blocked {
		g.AddObstacle(clockroute.R(18, 4, 30, 18))        // IP macro
		g.AddWiringBlockage(clockroute.R(40, 10, 43, 25)) // routed-over region
	}
	tech := clockroute.DefaultTech()
	prob, err := clockroute.NewProblem(g, tech, clockroute.Pt(2, 12), clockroute.Pt(58, 12))
	if err != nil {
		log.Fatal(err)
	}

	rec := clockroute.NewWavefrontRecorder(g)
	res, err := clockroute.RBP(prob, 300, clockroute.Options{Trace: rec, DisableBounds: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("=== %s ===\n", title)
	fmt.Printf("latency %.0f ps (%d registers, %d buffers)\n\n", res.Latency, res.Registers, res.Buffers)
	if err := rec.Render(os.Stdout, res.Path); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := rec.Summary(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

func main() {
	run("open die: concentric wavefronts (Fig. 6)", false)
	run("with blockages: irregular wavefronts", true)
}
