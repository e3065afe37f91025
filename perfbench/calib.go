package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// Host-speed calibration. On a shared 2-vCPU VM the same work took up to
// twice as long from one half-hour to the next, process CPU time included,
// so raw timings of two sets of runs of identical code disagreed by more
// than any useful bound. Each run therefore times a fixed calibration
// workload written in this package, which no change to the program can
// move, before and after each set-up and between the blocks of the measured
// phase, and scales each timing taken between two calibration points to the
// reference host speed: raw × reference / (the workload's mean time at
// those points). The workload has two halves, each run in GOMAXPROCS
// goroutines at once: Dijkstra from one corner of a seeded 128×128 grid
// with a binary heap, the branchy, cache-bound kind of search the router
// does; and JSON round trips to a standard-library HTTP echo server on
// loopback, the syscalls, wake-ups and cross-vCPU hand-offs of the
// service's front path. Dijkstra alone under-corrected: the service's
// timings moved 13–40% further than it did when the host sped up.

const (
	calibSide = 128
	// calibReps is the Dijkstra repetitions per goroutine at each point.
	calibReps = 24
	// calibTrips is the echo round trips per goroutine at each point.
	calibTrips = 800
	// calibRefWallMS and calibRefCPUMS are about one goroutine's share of
	// a point's wall and process CPU time on the reference host, an
	// unloaded 2-vCPU x86-64 VM with Go 1.24: the speed every timing is
	// scaled to.
	calibRefWallMS = 130
	calibRefCPUMS  = 120
)

type calibItem struct {
	d float64
	v int32
}

type calibKernel struct {
	w    []float64 // four edge weights per node: +x, -x, +y, -y
	dist []float64
	heap []calibItem
}

func newCalibKernel() *calibKernel {
	n := calibSide * calibSide
	rng := rand.New(rand.NewSource(1))
	k := &calibKernel{
		w:    make([]float64, 4*n),
		dist: make([]float64, n),
		heap: make([]calibItem, 0, 4*n+1), // each settled node pushes at most 4
	}
	for i := range k.w {
		k.w[i] = 1 + rng.Float64()
	}
	return k
}

// run is one repetition; it returns the far corner's distance.
func (k *calibKernel) run() float64 {
	for i := range k.dist {
		k.dist[i] = math.Inf(1)
	}
	k.dist[0] = 0
	h := append(k.heap[:0], calibItem{0, 0})
	for len(h) > 0 {
		it := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; { // sift down
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1].d < h[c].d {
				c++
			}
			if h[i].d <= h[c].d {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		v := int(it.v)
		if it.d > k.dist[v] {
			continue
		}
		x, y := v%calibSide, v/calibSide
		for e, nb := range [4]int{v + 1, v - 1, v + calibSide, v - calibSide} {
			switch {
			case e == 0 && x == calibSide-1, e == 1 && x == 0, e == 2 && y == calibSide-1, e == 3 && y == 0:
				continue
			}
			d := it.d + k.w[4*v+e]
			if d >= k.dist[nb] {
				continue
			}
			k.dist[nb] = d
			h = append(h, calibItem{d, int32(nb)})
			for i := len(h) - 1; i > 0; { // sift up
				p := (i - 1) / 2
				if h[p].d <= h[i].d {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
		}
	}
	k.heap = h
	return k.dist[len(k.dist)-1]
}

// calibrator times the calibration workload and holds, per point, one
// goroutine's mean share of its wall time and of the process CPU time, in
// ms, and the two halves' wall times for the report.
type calibrator struct {
	srv  *http.Server
	url  string
	cli  *http.Client
	body []byte
	err  error // the first failed echo round trip; the run is void

	wallMS, cpuMS      []float64
	dijkstraMS, echoMS []float64
}

type calibMsg struct {
	Name string `json:"name"`
	Pts  []int  `json:"pts"`
}

// newCalibrator starts the echo server.
func newCalibrator() (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("perfbench: calibration listen: %w", err)
	}
	c := &calibrator{
		url: "http://" + ln.Addr().String(),
		cli: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: runtime.GOMAXPROCS(0)}},
	}
	c.body, _ = json.Marshal(calibMsg{Name: "calibration", Pts: make([]int, 200)})
	c.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var m calibMsg
		if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_ = json.NewEncoder(w).Encode(&m)
	})}
	go func() { _ = c.srv.Serve(ln) }() // returns once close runs
	return c, nil
}

func (c *calibrator) close() {
	_ = c.srv.Close()
	c.cli.CloseIdleConnections()
}

func (c *calibrator) trip() error {
	resp, err := c.cli.Post(c.url, "application/json", bytes.NewReader(c.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("echo status %d", resp.StatusCode)
	}
	return nil
}

// point runs both halves of the calibration workload in each of
// GOMAXPROCS goroutines at once, so each vCPU the program runs on is
// timed. The Dijkstra buffers are garbage when it returns, so they never
// count in heap_live_mb.
func (c *calibrator) point() {
	ks := make([]*calibKernel, runtime.GOMAXPROCS(0))
	dWall := make([]time.Duration, len(ks))
	eWall := make([]time.Duration, len(ks))
	errs := make([]error, len(ks))
	var wg sync.WaitGroup
	for i := range ks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ks[i] = newCalibKernel()
			ks[i].run() // fault the buffers in
		}(i)
	}
	wg.Wait()
	cpu0 := cpuTime()
	for i, k := range ks {
		wg.Add(1)
		go func(i int, k *calibKernel) {
			defer wg.Done()
			start := time.Now()
			for r := 0; r < calibReps; r++ {
				k.run()
			}
			dWall[i] = time.Since(start)
			start = time.Now()
			for t := 0; t < calibTrips && errs[i] == nil; t++ {
				errs[i] = c.trip()
			}
			eWall[i] = time.Since(start)
		}(i, k)
	}
	wg.Wait()
	n := float64(len(ks))
	var d, e time.Duration
	for i := range ks {
		d += dWall[i]
		e += eWall[i]
		if c.err == nil && errs[i] != nil {
			c.err = fmt.Errorf("perfbench: calibration echo: %w", errs[i])
		}
	}
	c.dijkstraMS = append(c.dijkstraMS, ms(d)/n)
	c.echoMS = append(c.echoMS, ms(e)/n)
	c.wallMS = append(c.wallMS, ms(d+e)/n)
	c.cpuMS = append(c.cpuMS, ms(cpuTime()-cpu0)/n)
}

// scaleLast is the factor that turns a raw timing taken between the last
// two points into reference time: the reference over the workload's mean
// time at those points. Wall-clock figures use its wall time, which counts
// the steal and contention that slowed it as they slowed the work;
// CPU-time figures use its CPU time, which counts neither.
func (c *calibrator) scaleLast() (wall, cpu float64) {
	n := len(c.wallMS)
	return 2 * calibRefWallMS / (c.wallMS[n-2] + c.wallMS[n-1]), 2 * calibRefCPUMS / (c.cpuMS[n-2] + c.cpuMS[n-1])
}

// report is the line every run prints about the calibration points.
func (c *calibrator) report() string {
	mean := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t / float64(len(xs))
	}
	return fmt.Sprintf("calibration: %d points, per goroutine: dijkstra %.2f ms, echo %.2f ms, wall %.2f ms (reference %d), cpu %.2f ms (reference %d)",
		len(c.wallMS), mean(c.dijkstraMS), mean(c.echoMS), mean(c.wallMS), calibRefWallMS, mean(c.cpuMS), calibRefCPUMS)
}
