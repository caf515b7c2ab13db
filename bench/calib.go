package main

// Host speed on a shared machine drifts by tens of percent over minutes as
// neighbours come and go, which no amount of work inside one run averages
// out, and within a run it swings by as much again over seconds. Each run
// therefore also times a fixed reference kernel, before, between and after
// its items, and reports its host times at the kernel's nominal speed: a
// time t measured while the kernel took k reads as t/s with the slowdown
// s = (k/calibNominal)^calibElasticity. For one item or set-up pass, k is
// the median of the passes nearest it in time; for the loop as a whole,
// the median of all passes. The kernel lives in this package, so a change
// to the code under test cannot speed it up or slow it down; it allocates
// nothing, so the workload's garbage collection does not depend on it. It
// mixes the work the simulator's speed follows: integer arithmetic, a
// binary heap of timed events, and read-modify-writes scattered over L2-,
// LLC- and DRAM-sized tables. The tables live outside the Go heap, so they
// do not raise the garbage collector's heap target and change how often
// the workload collects; they add about 20 MB to peak_rss_mb and nothing
// to mem_mb_p99.

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

const (
	calibNominal = 28 * time.Millisecond  // the kernel's time on a calm 2-CPU dev box
	calibEvery   = 500 * time.Millisecond // least loop time between two kernel passes
	calibNear    = 2                      // passes on each side of a sample that time it

	// calibElasticity is how much more the workloads slow down than the
	// kernel when the host is loaded: regressing log raw throughput on log
	// kernel time over 250 runs of the five workloads on the dev box gave
	// slopes of 1.2 to 1.7 (correlation 0.9 to 0.97). The kernel's
	// arithmetic suffers less from neighbours than the simulator's cache-
	// and allocation-heavy work. Slowdowns are raised to this power.
	calibElasticity = 1.25
)

type calibEvent struct{ when, seq uint64 }

// calibPass is one timed run of the kernel.
type calibPass struct {
	end  time.Time
	slow float64 // its time over calibNominal
}

// calibrator times the reference kernel.
type calibrator struct {
	mem             []byte // the mapping behind the tables
	small, mid, big []uint32
	events          []calibEvent
	passes          []calibPass // in time order
	last            time.Time
	sink            uint64
}

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, (64<<10+1<<20+4<<20)*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("calibration tables: %w", err)
	}
	t := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), len(mem)/4)
	c := &calibrator{
		mem:    mem,
		small:  t[:64<<10],               // 256 KiB
		mid:    t[64<<10 : 64<<10+1<<20], // 4 MiB
		big:    t[64<<10+1<<20:],         // 16 MiB
		events: make([]calibEvent, 0, 4096),
	}
	for i := range c.big {
		c.big[i] = uint32(i) * 2246822519
	}
	return c, nil
}

// close unmaps the tables.
func (c *calibrator) close() error { return syscall.Munmap(c.mem) }

// pass times one run of the kernel.
func (c *calibrator) pass() {
	start := time.Now()
	c.kernel()
	c.last = time.Now()
	c.passes = append(c.passes, calibPass{c.last, float64(c.last.Sub(start)) / float64(calibNominal)})
}

// maybe runs a pass once calibEvery has gone by since the last.
func (c *calibrator) maybe() {
	if time.Since(c.last) >= calibEvery {
		c.pass()
	}
}

// slowdown is the factor by which the host slowed the workload: the
// median kernel time over its nominal time, raised to calibElasticity.
// Divide a measured time by it, or multiply a measured rate.
func (c *calibrator) slowdown() float64 { return slowdownOf(c.passes) }

// slowdownAt is the slowdown of the calibNear passes on either side of t,
// the end of a sample: host speed swings over seconds, which the passes
// around a sample follow and the median of a whole run does not.
func (c *calibrator) slowdownAt(t time.Time) float64 {
	i := sort.Search(len(c.passes), func(i int) bool { return !c.passes[i].end.Before(t) })
	return slowdownOf(c.passes[max(i-calibNear, 0):min(i+calibNear, len(c.passes))])
}

func slowdownOf(ps []calibPass) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = p.slow
	}
	return math.Pow(median(xs), calibElasticity)
}

func (c *calibrator) kernel() {
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 2_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	c.sink += x + uint64(chase(c.small, 400_000)+chase(c.mid, 100_000)+chase(c.big, 40_000))

	// A discrete-event loop: pop the earliest event, touch a table line,
	// schedule a follow-up.
	h := c.events[:0]
	for i := uint64(0); i < 4096; i++ {
		h = push(h, calibEvent{i, i})
	}
	for i := uint64(0); i < 60_000; i++ {
		e := h[0]
		h = pop(h)
		x = x*6364136223846793005 + 1442695040888963407
		line := &c.mid[(x>>40)&uint64(len(c.mid)-1)]
		*line += uint32(e.when)
		h = push(h, calibEvent{e.when + uint64(*line&63) + 1, 4096 + i})
	}
	c.events = h
	c.sink += x
}

// chase performs n dependent read-modify-writes scattered over t, whose
// length is a power of two.
func chase(t []uint32, n int) uint32 {
	idx, mask := uint32(1), uint32(len(t)-1)
	for i := 0; i < n; i++ {
		idx = (t[idx] ^ uint32(i)*2654435761) & mask
		t[idx]++
	}
	return idx
}

func calibLess(a, b calibEvent) bool { return a.when < b.when || a.when == b.when && a.seq < b.seq }

func push(h []calibEvent, e calibEvent) []calibEvent {
	h = append(h, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !calibLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func pop(h []calibEvent) []calibEvent {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && calibLess(h[l], h[m]) {
			m = l
		}
		if l+1 < n && calibLess(h[l+1], h[m]) {
			m = l + 1
		}
		if m == i {
			return h
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
