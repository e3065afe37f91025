package main

import (
	"bufio"
	"errors"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, or 0
// for an empty sample. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(float64(len(xs))*p+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// beyond is the number of samples strictly above the nearest-rank
// p-quantile: the tail a percentile claim rests on.
func beyond(n int, p float64) int {
	i := int(float64(n)*p+0.5) - 1
	if i < 0 {
		i = 0
	}
	return n - 1 - i
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, so the steadiness report reads the same spread
// a Python checker would.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// cpuTime is the process's user+sys CPU time. Steal time is not charged
// to the process, which makes CPU per problem the cost figure a noisy
// neighbour cannot inflate.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime reads the host's cumulative steal time from /proc/stat.
func stealTime() (time.Duration, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		ticks, err := strconv.ParseInt(fields[8], 10, 64)
		if err != nil {
			return 0, err
		}
		const userHZ = 100 // USER_HZ is 100 on every Linux ABI Go supports
		return time.Duration(ticks) * time.Second / userHZ, nil
	}
	return 0, errors.New("perfbench: no cpu line in /proc/stat")
}

// hostSample brackets a measured phase: wall, process CPU and host steal.
type hostSample struct {
	wall  time.Time
	cpu   time.Duration
	steal time.Duration
}

func sampleHost() hostSample {
	st, _ := stealTime() // unreadable /proc/stat reports zero steal, never a failed run
	return hostSample{wall: time.Now(), cpu: cpuTime(), steal: st}
}
