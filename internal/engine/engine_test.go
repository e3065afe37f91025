package engine

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

// feed returns a closed channel holding the values 0..n-1.
func feed(n int) <-chan int {
	ch := make(chan int, n)
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	return ch
}

// The TestMap* checks below cover StreamRecover's mapping contract: fn
// runs once per value, and fn's worker index lies in [0, workers).

func TestMapRunsEveryTaskExactlyOnce(t *testing.T) {
	const n = 64
	var calls [n]atomic.Int32
	delivered := make(map[int]int, n) // out runs under the pool's mutex
	consumed := StreamRecover(context.Background(), 8, feed(n),
		func(_ context.Context, _, i int) int { calls[i].Add(1); return i },
		func(i int) { delivered[i]++ },
		func(int, any, []byte) int { t.Error("no task panics"); return 0 })
	if consumed != n {
		t.Errorf("consumed %d values, want %d", consumed, n)
	}
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Errorf("task %d ran %d times", i, c)
		}
		if d := delivered[i]; d != 1 {
			t.Errorf("task %d delivered %d times", i, d)
		}
	}
}

func TestMapIndexedReportsWorkerIDs(t *testing.T) {
	const workers, n = 5, 200
	type slot struct{ worker, task int }
	seen := make(map[int]int, n)
	StreamRecover(context.Background(), workers, feed(n),
		func(_ context.Context, w, i int) slot { return slot{worker: w, task: i} },
		func(s slot) {
			if s.worker < 0 || s.worker >= workers {
				t.Errorf("task %d ran on worker %d, want [0,%d)", s.task, s.worker, workers)
			}
			seen[s.task]++
		},
		func(int, any, []byte) slot { t.Error("no task panics"); return slot{} })
	if len(seen) != n {
		t.Errorf("worker attribution covers %d tasks, want %d", len(seen), n)
	}
}

func TestMapIndexedSingleWorkerIsZero(t *testing.T) {
	var tasks int
	StreamRecover(context.Background(), 1, feed(10),
		func(_ context.Context, w, _ int) int { return w },
		func(w int) {
			tasks++
			if w != 0 {
				t.Errorf("a task saw worker %d on the serial path", w)
			}
		},
		func(int, any, []byte) int { t.Error("no task panics"); return 0 })
	if tasks != 10 {
		t.Errorf("%d results, want 10", tasks)
	}
}

func TestStreamRecoverEmptyAndSingle(t *testing.T) {
	noPanic := func(int, any, []byte) int { t.Error("no task panics"); return 0 }
	if got := StreamRecover(context.Background(), 4, feed(0), func(_ context.Context, _, i int) int { return i },
		func(int) { t.Error("out called on an empty stream") }, noPanic); got != 0 {
		t.Errorf("empty stream consumed %d values", got)
	}
	var got []int
	StreamRecover(context.Background(), 16, feed(1), func(_ context.Context, _, i int) int { return 7 },
		func(v int) { got = append(got, v) }, noPanic)
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("single value got %v", got)
	}
}

func TestStreamRecoverBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	StreamRecover(context.Background(), workers, feed(24), func(_ context.Context, _, i int) int {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		// Let other workers catch up so a violation would be observed.
		runtime.Gosched()
		inFlight.Add(-1)
		return i
	}, func(int) {}, func(int, any, []byte) int { return 0 })
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestWorkers(t *testing.T) {
	if w := Workers(0, 100); w != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := Workers(8, 3); w != 3 {
		t.Errorf("Workers(8, 3) = %d, want clamp to 3", w)
	}
	if w := Workers(-2, 0); w != 1 {
		t.Errorf("Workers(-2, 0) = %d, want 1", w)
	}
}

// TestStreamRecoverContainsPanics: panicking tasks are replaced by
// onPanic's value (with the panicking stack captured) while surviving
// tasks run untouched, on every worker count.
func TestStreamRecoverContainsPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var stacks atomic.Int64
		got := make(map[int]int)
		StreamRecover(context.Background(), workers, feed(20),
			func(_ context.Context, _, i int) [2]int {
				if i%5 == 3 {
					panic(i)
				}
				return [2]int{i, i * 10}
			},
			func(r [2]int) { got[r[0]] = r[1] },
			func(i int, v any, stack []byte) [2]int {
				if v.(int) != i {
					t.Errorf("onPanic got value %v for task %d", v, i)
				}
				if len(stack) > 0 {
					stacks.Add(1)
				}
				return [2]int{i, -1}
			})
		if len(got) != 20 {
			t.Fatalf("workers=%d: %d results, want 20", workers, len(got))
		}
		for i, v := range got {
			want := i * 10
			if i%5 == 3 {
				want = -1
			}
			if v != want {
				t.Errorf("workers=%d: task %d = %d, want %d", workers, i, v, want)
			}
		}
		if stacks.Load() != 4 {
			t.Errorf("workers=%d: %d stacks captured, want 4", workers, stacks.Load())
		}
	}
}
