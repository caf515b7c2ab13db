// Sharded parallel dispatch: a Cluster partitions one simulated machine
// into timing domains, each owning a private Engine driven by its own
// worker goroutine, synchronized by a conservative time window in the
// gem5 multi-event-queue style.
//
// The contract is the classic conservative-PDES one: every cross-domain
// interaction must be routed as a message with a simulated latency of at
// least the cluster's lookahead (for this machine, min(FlushLat, MsgLat)
// from the config). Each round, all domains agree on the global minimum
// pending event time m and dispatch only events in [m, m+lookahead); a
// message sent while dispatching inside that window carries a delivery
// stamp >= m+lookahead, so it is always drained into the destination's
// overflow heap at a barrier before the destination can reach it.
//
// Arrival ordering is what makes parallel results match serial ones. The
// serial engine orders same-cycle events by a global schedule sequence.
// A sharded engine cannot assign a global seq, but it can reconstruct
// where an arrival would have landed: each shard records a watermark
// (cycle, seq) at every clock advance, and an arrival sent at cycle S is
// merged with the seq its receiver's counter held when its clock passed
// S — i.e. exactly after every local event scheduled while now <= S and
// before every event scheduled later, which is where a serial engine's
// global seq would have placed it. The only serial/parallel divergence
// left is the relative order of schedule calls made at the same cycle on
// different domains, which the differential suite pins as result-neutral.
package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// markRingSize bounds the watermark history a shard retains. Arrivals
// drained at a window boundary were sent no earlier than the previous
// window, and a window spans at most lookahead distinct dispatch cycles,
// so the live span is tiny; the ring is generously larger and watermark
// panics if an arrival ever looks past it.
const markRingSize = 1024

// shardInit prepares e to run as one domain of a Cluster: the watermark
// ring is what distinguishes a shard engine from a serial one.
func (e *Engine) shardInit() {
	e.marks = make([]mark, markRingSize)
}

// watermark places a cross-shard send moment into this engine's local
// seq order: it returns the seq an event scheduled here at cycle sent
// would have received. Concretely that is the seq counter value at the
// first recorded clock advance past sent, or the live counter if the
// clock has not advanced past sent.
func (e *Engine) watermark(sent Cycles) uint64 {
	w := e.seq
	n := len(e.marks)
	lo := e.markHead - n
	if lo < 0 {
		lo = 0
	}
	for i := e.markHead - 1; i >= lo; i-- {
		m := &e.marks[i&(n-1)]
		if m.cycle <= sent {
			return w
		}
		w = m.seq
	}
	if e.markHead > n {
		panic("sim: watermark ring too small for arrival send time")
	}
	return w
}

// ArriveOp merges a cross-shard typed event into the overflow heap, whose
// full (when, seq, sub) compare places it among the local events (the
// wheel's FIFOs order by local seq alone, so arrivals never enter them).
// when is the delivery stamp, sent the sender's clock at the send; sub
// ranks arrivals that share a send moment (callers build it from the
// source domain and drain order, below localSub). Only the engine's own
// worker may call it, between windows.
func (e *Engine) ArriveOp(when, sent Cycles, op EventOp, kind int, arg uint64, sub uint64) {
	if when < e.now {
		panic("sim: cross-shard arrival in the past (latency below cluster lookahead)")
	}
	e.push(event{when: when, seq: e.watermark(sent), arg: arg, kind: int32(kind), opIdx: e.opIndex(op), sub: sub})
}

// ArriveFn is ArriveOp for closure-form deliveries (the legacy model
// API); the closure parks in the engine's fns table like an At call.
func (e *Engine) ArriveFn(when, sent Cycles, fn func(), sub uint64) {
	if when < e.now {
		panic("sim: cross-shard arrival in the past (latency below cluster lookahead)")
	}
	var idx int32
	if n := len(e.fnFree); n > 0 {
		idx = e.fnFree[n-1]
		e.fnFree = e.fnFree[:n-1]
		e.fns[idx] = fn
	} else {
		idx = int32(len(e.fns))
		e.fns = append(e.fns, fn) //asaplint:ignore alloccheck free-list miss; bounded by peak in-flight closure events
	}
	e.push(event{when: when, seq: e.watermark(sent), opIdx: -1, fnIdx: idx, sub: sub})
}

// minWhen reports the earliest pending event time, or ^0 when idle.
func (e *Engine) minWhen() Cycles {
	ev, _ := e.peek()
	if ev == nil {
		return ^Cycles(0)
	}
	return ev.when
}

// runWindow dispatches events strictly before horizon, recording a seq
// watermark at every clock advance so later arrivals can be placed. It
// reports false if a handler halted the engine.
//
//asap:hot the shard dispatch loop: every sharded cycle of work funnels through here
func (e *Engine) runWindow(horizon Cycles) bool {
	for !e.halted {
		next, slot := e.peek()
		if next == nil || next.when >= horizon {
			break
		}
		if next.when != e.now {
			e.marks[e.markHead&(markRingSize-1)] = mark{cycle: next.when, seq: e.seq}
			e.markHead++
		}
		e.dispatch(next, slot)
	}
	return !e.halted
}

// Ring is a fixed-capacity single-producer single-consumer queue: the
// cross-shard message channel. One goroutine sends, one receives; the
// Cluster's window barrier supplies the ordering that makes "producer
// finished before consumer drains" hold each round.
type Ring[T any] struct {
	mask uint64
	buf  []T
	_    [48]byte
	head atomic.Uint64 // consumer cursor
	_    [56]byte
	tail atomic.Uint64 // producer cursor
	_    [56]byte
}

// NewRing returns a ring holding up to capacity elements (rounded up to
// a power of two, minimum 2).
func NewRing[T any](capacity int) *Ring[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &Ring[T]{mask: uint64(n - 1)}
	r.buf = make([]T, n)
	return r
}

// Send enqueues v, reporting false if the ring is full.
//
//asap:hot cross-shard send: called from dispatch handlers via Link
func (r *Ring[T]) Send(v T) bool {
	t := r.tail.Load()            //asaplint:ignore alloccheck atomic.Uint64.Load is a single MOV, no allocation
	if t-r.head.Load() > r.mask { //asaplint:ignore alloccheck atomic.Uint64.Load is a single MOV, no allocation
		return false
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1) //asaplint:ignore alloccheck atomic.Uint64.Store is a single XCHG, no allocation
	return true
}

// Recv dequeues into v, reporting false if the ring is empty. The slot
// is zeroed so payload references do not outlive delivery.
//
//asap:hot cross-shard drain: called at every window barrier
func (r *Ring[T]) Recv(v *T) bool {
	h := r.head.Load()      //asaplint:ignore alloccheck atomic.Uint64.Load is a single MOV, no allocation
	if h == r.tail.Load() { //asaplint:ignore alloccheck atomic.Uint64.Load is a single MOV, no allocation
		return false
	}
	i := h & r.mask
	*v = r.buf[i]
	var zero T
	r.buf[i] = zero
	r.head.Store(h + 1) //asaplint:ignore alloccheck atomic.Uint64.Store is a single XCHG, no allocation
	return true
}

// Len reports the number of queued elements (exact only when producer
// and consumer are quiescent, as at a window barrier).
func (r *Ring[T]) Len() int { return int(r.tail.Load() - r.head.Load()) }

// An Inbox delivers cross-shard messages into a destination engine at a
// window barrier. Implementations (persist.Link's ring endpoints) pop
// every pending message and ArriveOp/ArriveFn it, ranking each arrival
// as sub = subBase | ctr where ctr is the inbox's own delivery counter,
// monotonic over the whole run: two arrivals from one source that
// collapse to the same (when, seq) — the receiver idle between their
// send moments — must still sort in send order, and a counter that
// reset each drain would collide across windows.
type Inbox interface {
	Drain(dst *Engine, subBase uint64)
}

// subShift positions the inbox index above the 48-bit delivery counter
// in an arrival's sub rank; both stay below localSub.
const subShift = 48

// padCycles keeps each domain's posted minimum on its own cache line.
type padCycles struct {
	v Cycles
	_ [56]byte
}

// Cluster coordinates the domain engines of one sharded machine. Domain
// 0 conventionally hosts the cores and runs on the caller's goroutine;
// Run drives all domains to completion.
type Cluster struct {
	domains   []*Engine
	inboxes   [][]Inbox
	lookahead Cycles
	limit     Cycles

	// barrier state: a central sense-reversing barrier, crossed twice
	// per window (once after sends quiesce, once after minima post).
	arrived atomic.Int32
	sense   atomic.Uint32
	haltReq atomic.Bool
	abort   atomic.Bool
	mins    []padCycles

	// reducer-written between barrier senses, read by all after release.
	windowEnd Cycles
	done      bool
	hitLimit  bool

	panicOnce sync.Once
	panicVal  any
}

// NewCluster builds n domain engines synchronized at the given lookahead
// (the minimum cross-domain message latency, in cycles). n must be at
// least 2 and lookahead at least 1.
func NewCluster(n int, lookahead Cycles) *Cluster {
	if n < 2 {
		panic("sim: cluster needs at least two domains")
	}
	if lookahead == 0 {
		panic("sim: cluster lookahead must be positive")
	}
	c := &Cluster{
		domains:   make([]*Engine, n),
		inboxes:   make([][]Inbox, n),
		lookahead: lookahead,
		mins:      make([]padCycles, n),
	}
	for i := range c.domains {
		e := NewEngine()
		e.shardInit()
		c.domains[i] = e
	}
	return c
}

// Domain returns shard i's engine. Components assigned to a domain must
// schedule exclusively on its engine.
func (c *Cluster) Domain(i int) *Engine { return c.domains[i] }

// Domains reports the number of shards.
func (c *Cluster) Domains() int { return len(c.domains) }

// Lookahead reports the conservative window width in cycles.
func (c *Cluster) Lookahead() Cycles { return c.lookahead }

// AddInbox registers an inbox draining into domain dst. Registration
// order fixes arrival order between inboxes; callers register in source
// domain order to keep it deterministic.
func (c *Cluster) AddInbox(dst int, ib Inbox) {
	c.inboxes[dst] = append(c.inboxes[dst], ib)
}

// Run drives every domain until all queues and rings drain, a handler
// halts, or the clock would pass limit (0 = no limit), then aligns all
// domain clocks to the global stop time — the same cycle the serial
// engine would report — and returns it.
func (c *Cluster) Run(limit Cycles) Cycles {
	c.limit = limit
	c.done = false
	c.hitLimit = false
	var wg sync.WaitGroup
	for d := 1; d < len(c.domains); d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			c.worker(d)
		}(d)
	}
	c.worker(0)
	wg.Wait()
	if c.panicVal != nil {
		panic(c.panicVal)
	}
	stop := Cycles(0)
	for _, e := range c.domains {
		if e.now > stop {
			stop = e.now
		}
	}
	if c.hitLimit && limit > stop {
		stop = limit
	}
	// Aligning skips no event a domain can still dispatch: a domain that
	// finished its last window has nothing pending before the window end,
	// which bounds stop. Only a halted domain can be moved past its own
	// pending events, and a halted engine never dispatches again.
	for _, e := range c.domains {
		e.now = stop
	}
	return stop
}

// abortPanic is the sentinel a waiter throws to escape the barrier when
// a sibling shard has already panicked; it never shadows the original
// panic value.
type abortPanic struct{}

// worker is one domain's drive loop: quiesce sends, drain arrivals,
// agree on the next window, dispatch it.
func (c *Cluster) worker(d int) {
	defer func() {
		if r := recover(); r != nil {
			if _, sentinel := r.(abortPanic); !sentinel {
				c.panicOnce.Do(func() { c.panicVal = r })
			}
			c.abort.Store(true)
			if d == 0 {
				// Domain 0 runs on the caller's goroutine, so its panic
				// must reach Run's caller — the original value, not the
				// barrier-escape sentinel, when a sibling panicked first.
				if _, sentinel := r.(abortPanic); sentinel && c.panicVal != nil {
					panic(c.panicVal)
				}
				panic(r)
			}
		}
	}()
	e := c.domains[d]
	for {
		c.barrier(false) // all domains' sends for the last window are in the rings
		for i, ib := range c.inboxes[d] {
			ib.Drain(e, uint64(i+1)<<subShift)
		}
		c.mins[d].v = e.minWhen()
		c.barrier(true) // reducer fixes the next window from the posted minima
		if c.done {
			return
		}
		if !e.runWindow(c.windowEnd) {
			c.haltReq.Store(true)
		}
	}
}

// barrier is the central sense-reversing barrier. The last arriver
// optionally runs the window reduction before releasing the others.
// Waiters spin briefly and then yield, so an oversubscribed box (or a
// single-core one) degrades to cooperative scheduling instead of
// burning a quantum per window.
func (c *Cluster) barrier(reduce bool) {
	s := c.sense.Load()
	if int(c.arrived.Add(1)) == len(c.domains) {
		c.arrived.Store(0)
		if reduce {
			c.reduce()
		}
		c.sense.Store(s ^ 1)
		return
	}
	for spins := 0; c.sense.Load() == s; spins++ {
		if c.abort.Load() {
			panic(abortPanic{})
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// reduce computes the next window [m, m+lookahead) from the posted
// minima, or marks the run done: on global quiescence, on a halt
// request, or when the minimum passes the run limit.
func (c *Cluster) reduce() {
	min := ^Cycles(0)
	for i := range c.mins {
		if c.mins[i].v < min {
			min = c.mins[i].v
		}
	}
	switch {
	case c.haltReq.Load() || c.abort.Load() || min == ^Cycles(0):
		c.done = true
	case c.limit != 0 && min > c.limit:
		c.done = true
		c.hitLimit = true
	default:
		end := min + c.lookahead
		if c.limit != 0 && end > c.limit+1 {
			end = c.limit + 1
		}
		c.windowEnd = end
	}
}
