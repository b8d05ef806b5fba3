package main

import (
	"math"
	"sync"
	"syscall"
	"time"
)

// Shared machines change speed by tens of percent within minutes, and a
// graph workload slows with them, so wall times alone do not repeat.
// Before every timed slice of work the benchmark therefore measures the
// machine on two fixed kernels of its own, independent of the code under
// test: breadth-first search over a random graph (memory latency) and
// clearing a buffer (memory bandwidth). The geometric mean of their
// speeds relative to a reference machine tracked the lane engine's speed
// better than either kernel alone, or than pure arithmetic.

// The kernels' rates on the 2-core Xeon the bounds were set on, in a
// quiet period. They fix the scale of the reported numbers, not their
// spread.
const (
	refVisitsPerSec = 3.0e7
	refBytesPerSec  = 2.0e10
)

const (
	calibNodes  = 1 << 17
	calibDegree = 16
	calibPasses = 2        // per goroutine and kernel in one sample
	calibBuffer = 32 << 20 // bytes, split between the goroutines
)

// calibrator holds the kernels' data and per-goroutine scratch space.
type calibrator struct {
	adj     []int32 // node v's neighbours are adj[v*calibDegree:][:calibDegree]
	buf     []byte
	scratch [clients]struct {
		seen  []uint32
		queue []int32
		epoch uint32
	}
}

func newCalibrator() *calibrator {
	c := &calibrator{adj: make([]int32, calibNodes*calibDegree), buf: make([]byte, calibBuffer)}
	x := uint64(88172645463325252)
	for i := range c.adj {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.adj[i] = int32(x % calibNodes)
	}
	for i := range c.scratch {
		c.scratch[i].seen = make([]uint32, calibNodes)
		c.scratch[i].queue = make([]int32, 0, calibNodes)
	}
	return c
}

// sample runs both kernels on every client core at once and returns the
// machine's speed relative to the reference: below 1 when slower.
func (c *calibrator) sample() float64 {
	visits := make([]int, clients)
	bfs := parallel(func(g int) {
		for p := 0; p < calibPasses; p++ {
			visits[g] += c.search(g, int32(p*7919%calibNodes))
		}
	})
	total := 0
	for _, v := range visits {
		total += v
	}
	part := len(c.buf) / clients
	clr := parallel(func(g int) {
		b := c.buf[g*part : (g+1)*part]
		for p := 0; p < calibPasses; p++ {
			clear(b)
			for j := 0; j < len(b); j += 64 {
				b[j] = byte(p + j)
			}
		}
	})
	rBFS := float64(total) / bfs.Seconds() / refVisitsPerSec
	rClear := float64(calibPasses*len(c.buf)) / clr.Seconds() / refBytesPerSec
	return math.Sqrt(rBFS * rClear)
}

// parallel runs f on one goroutine per client core and returns the time
// until all have finished.
func parallel(f func(g int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f(g)
		}(g)
	}
	wg.Wait()
	return time.Since(start)
}

// search is one breadth-first search from src; it returns the nodes
// reached.
func (c *calibrator) search(g int, src int32) int {
	s := &c.scratch[g]
	s.epoch++
	q := append(s.queue[:0], src)
	s.seen[src] = s.epoch
	for i := 0; i < len(q); i++ {
		v := q[i]
		for _, w := range c.adj[int(v)*calibDegree : int(v+1)*calibDegree] {
			if s.seen[w] != s.epoch {
				s.seen[w] = s.epoch
				q = append(q, w)
			}
		}
	}
	s.queue = q
	return len(q)
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// scale is the factor that turns a wall time measured at relative speed
// r into one at the reference speed. A slice that kept the cores busy at
// least half the time is bound by computation and scales with the
// machine's speed; one that mostly waited on timers or the network is
// reported as measured.
func scale(r, busy float64) float64 {
	if busy < 0.5 {
		return 1
	}
	return r
}
