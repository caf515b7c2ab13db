// Package sim provides the discrete-event simulation engine that drives every
// timing model in this repository. Time is measured in CPU cycles of a 2 GHz
// clock (1 ns = 2 cycles), matching the configuration in Table II of the
// ASAP paper.
package sim

import "math/bits"

// Cycles is the simulation time unit: one cycle of the 2 GHz core clock.
type Cycles = uint64

// Frequency of the simulated cores, cycles per nanosecond.
const CyclesPerNS = 2

// NS converts nanoseconds to cycles.
func NS(ns uint64) Cycles { return ns * CyclesPerNS }

// EventOp is a receiver of typed events: a long-lived component (machine,
// model, memory controller, link) implements RunEvent and dispatches on
// kind, with arg carrying a small payload such as a core index. kind values
// are private to each receiver; the engine never interprets them. A
// receiver is registered once (RegisterOp) and scheduled through the Op
// handle that returns, so scheduling allocates nothing and looks nothing up.
type EventOp interface {
	RunEvent(kind int, arg uint64)
}

// Op is a typed-event receiver's handle: its index in the engine's receiver
// table, assigned by RegisterOp in registration order. Events and
// continuations carry it, and dispatch indexes the table with it.
type Op int32

// Cont is a typed continuation: the (receiver, kind, arg) triple of a typed
// event, held as a value until an operation completes. Models receive one
// per stalling call (a store, a fence, a release) and either resume it at
// once (Engine.Resume), park it until the stall clears, or schedule it
// (Engine.ScheduleCont). It is pointer-free like a queued event, so a
// machine holding parked continuations is as serializable as its event
// queue. The zero Cont names no receiver; IsZero reports it.
type Cont struct {
	op   int32 // 1 + the receiver's Op; 0 for the zero Cont
	kind int32
	arg  uint64
}

// IsZero reports whether c is the zero Cont (no continuation parked).
func (c Cont) IsZero() bool { return c.op == 0 }

// event is a scheduled typed event. seq breaks ties deterministically so
// that two events scheduled for the same cycle fire in schedule order.
//
// The struct is deliberately pointer-free: the queue copies events on
// every schedule and dispatch (and the overflow heap permutes them), and
// if the element held an interface directly, every one of those moves
// would run a GC write barrier — measured at a double-digit share of
// whole-machine time. Instead an event holds opIdx into the engine's
// registered receiver table, and next links it into its wheel slot's FIFO,
// so queue moves are plain memmoves of a 40-byte value.
type event struct {
	when  Cycles
	seq   uint64
	arg   uint64
	kind  int32
	opIdx int32 // the receiver's Op: its index in Engine.ops
	next  int32 // wheel slab index of the next event in this slot; 0 ends the chain
}

// Engine is a single-threaded discrete-event simulator. Components schedule
// typed events at future cycles; Run dispatches them in time order. Engine is
// not safe for concurrent use: the whole simulated machine runs on one
// goroutine, which keeps the model deterministic.
//
// The pending-event queue (queue.go) is a timing wheel of one-cycle slots
// for the near-future events that make up almost every run, backed by a
// 4-ary min-heap for events scheduled further ahead, and fronted during a
// run by a one-event register for the event that will be dispatched next.
// Dispatch always takes the global minimum by (when, seq), a total order
// because every event takes a fresh seq, so dispatch order is independent
// of which structure an event sat in: the engine dispatches byte-identically
// to the container/heap scheduler the repo started with (pinned by
// TestDifferentialDeterminism and TestQueueDifferential).
type Engine struct {
	now        Cycles
	seq        uint64
	dispatched uint64 // events dispatched so far (see Dispatched)
	halted     bool
	onDispatch DispatchHook

	// The timing wheel: slot s is the FIFO of events at the one cycle in
	// [now, now+wheelSize) congruent to s, threaded through the dense
	// nodes slab (nodes[0] is the nil sentinel, so the wheel holds
	// len(nodes)-1 events); occ has bit s set iff slot s is non-empty.
	slots [wheelSize]wheelSlot
	occ   [wheelWords]uint64
	nodes []event

	// overflow is the 4-ary min-heap by (when, seq) for the events the
	// wheel cannot hold: those scheduled wheelSize or more cycles ahead.
	overflow []event

	// The direct-successor register, live only inside Run, RunUntil and
	// Step (queue.go). While holding, held precedes every queued event and
	// is dispatched next without entering the queue. floor is the cycle of
	// the queue's earliest event (maxCycles when the queue is empty) and
	// minSlot where that event sits: its wheel slot, overflowRoot, or
	// noSlot. Between runs all four are zero, and a zero floor keeps every
	// schedule out of the register.
	held    event
	holding bool
	floor   Cycles
	minSlot int

	// ops is the receiver table: RegisterOp appends a receiver, and its
	// index is the Op handle events and continuations carry, so they stay
	// pointer-free and dispatch is one indexed load.
	ops []EventOp
}

// NewEngine returns an engine with the clock at cycle zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.Reset()
	return e
}

// Reset returns the engine to its state after NewEngine — clock at cycle
// zero, nothing queued or dispatched, not halted, no hook and no receiver
// registered — whatever state a run, a halt or a crash left it in. Only
// the occupied wheel slots are cleared (an empty slot is all zero); the
// node slab keeps its capacity, and the overflow heap goes back to nil,
// as a new engine has none.
func (e *Engine) Reset() {
	for w, word := range e.occ {
		for ; word != 0; word &= word - 1 {
			e.slots[w<<6|bits.TrailingZeros64(word)] = wheelSlot{}
		}
	}
	e.occ = [wheelWords]uint64{}
	nodes := e.nodes[:0]
	if cap(nodes) == 0 {
		nodes = make([]event, 0, wheelSlabCap)
	}
	e.nodes, e.overflow = append(nodes, event{}), nil
	e.held, e.holding, e.floor, e.minSlot = event{}, false, 0, 0
	clear(e.ops) // drop the last run's receivers
	e.ops = e.ops[:0]
	e.now, e.seq, e.dispatched, e.halted, e.onDispatch = 0, 0, 0, false, nil
}

// Now reports the current simulation time in cycles.
func (e *Engine) Now() Cycles { return e.now }

// RegisterOp adds op to the receiver table and returns its handle, the
// table index, which the receiver keeps for scheduling itself. Register
// each receiver once. A checkpoint image stores queued events and parked
// continuations by handle, so a machine registers its receivers in one
// fixed construction order, and the table is identical between the
// machine that saved an image and the fresh machine that restores it. The
// handle never influences dispatch order: (when, seq) does.
func (e *Engine) RegisterOp(op EventOp) Op {
	e.ops = append(e.ops, op)
	return Op(len(e.ops) - 1)
}

// ScheduleOp schedules the typed event (op, kind, arg) at absolute cycle
// when. Scheduling in the past is a programming error and panics: it would
// silently corrupt causality.
func (e *Engine) ScheduleOp(when Cycles, op Op, kind int, arg uint64) {
	if when < e.now {
		panic("sim: event scheduled in the past")
	}
	e.enqueue(when, int32(op), int32(kind), arg)
}

// AfterOp schedules the typed event (op, kind, arg) delay cycles from now.
func (e *Engine) AfterOp(delay Cycles, op Op, kind int, arg uint64) {
	e.ScheduleOp(e.now+delay, op, kind, arg)
}

// Cont returns the continuation that runs op's RunEvent(kind, arg).
func (e *Engine) Cont(op Op, kind int, arg uint64) Cont {
	return Cont{op: int32(op) + 1, kind: int32(kind), arg: arg}
}

// Resume runs continuation c synchronously: the completed operation's
// caller continues at once, inside the current event.
func (e *Engine) Resume(c Cont) {
	e.ops[c.op-1].RunEvent(int(c.kind), c.arg)
}

// ScheduleCont schedules continuation c as a typed event at absolute cycle
// when; scheduling in the past panics, as with ScheduleOp.
func (e *Engine) ScheduleCont(when Cycles, c Cont) {
	if when < e.now {
		panic("sim: event scheduled in the past")
	}
	e.enqueue(when, c.op-1, c.kind, c.arg)
}

// Pending reports the number of scheduled events not yet dispatched.
func (e *Engine) Pending() int {
	n := len(e.nodes) - 1 + len(e.overflow)
	if e.holding {
		n++
	}
	return n
}

// Dispatched reports the number of events dispatched since construction.
// The machine's periodic sampler publishes it as a progress metric; unlike
// the dispatch hook, the native counter is always on, so observability
// readers never see zero just because no tracer was attached.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// DispatchHook observes the event loop: Dispatched runs immediately before
// each event dispatch, with the event's cycle.
type DispatchHook interface {
	Dispatched(when Cycles)
}

// SetDispatchHook registers h to observe every dispatch (the observability
// layer counts dispatches through it). A nil h clears the hook; with no
// hook set, dispatch pays one nil comparison.
func (e *Engine) SetDispatchHook(h DispatchHook) { e.onDispatch = h }

// Halt stops Run before the next event is dispatched. It is typically called
// from within an event handler (e.g. by a crash injector).
func (e *Engine) Halt() { e.halted = true }

// Halted reports whether Halt has been called.
func (e *Engine) Halted() bool { return e.halted }

// Run dispatches events in time order until the queue drains, Halt is
// called, or the clock would pass limit (limit 0 means no limit). It returns
// the cycle at which it stopped: limit when the next event lies past it,
// unless limit is already behind the clock, which never moves backwards.
func (e *Engine) Run(limit Cycles) Cycles {
	e.refresh()
	for !e.halted {
		when, ok := e.next()
		if !ok {
			break
		}
		if limit != 0 && when > limit {
			e.now = max(e.now, limit)
			break
		}
		e.dispatch()
	}
	e.closeRegister()
	return e.now
}

// RunUntil dispatches every event scheduled at or before limit and leaves
// the clock exactly at limit, even when the last event fired earlier (or no
// event was pending at all). It is the checkpoint/crash-injection driver's
// "advance to cycle" primitive: unlike Run, limit 0 means cycle zero, not
// "no limit", and the clock never stops short of limit — so a capture taken
// after RunUntil(c) always observes the state the machine has at cycle c,
// with every pre-c event retired.
func (e *Engine) RunUntil(limit Cycles) Cycles {
	e.refresh()
	for !e.halted {
		when, ok := e.next()
		if !ok || when > limit {
			break
		}
		e.dispatch()
	}
	e.closeRegister()
	if !e.halted && e.now < limit {
		e.now = limit
	}
	return e.now
}

// JumpTo advances the clock to when without dispatching anything. Crash
// injection uses it to place the power-failure instant between "every event
// before the crash cycle has fired" (RunUntil(when-1)) and "no event at the
// crash cycle has" — the same machine state the scheduled-crash event used
// to observe, since it carried sequence number zero and preempted all
// same-cycle work. Jumping backwards panics like scheduling in the past,
// and so does jumping past a pending event, which would leave it to fire
// before the clock.
func (e *Engine) JumpTo(when Cycles) {
	if when < e.now {
		panic("sim: clock jump into the past")
	}
	if ev, _ := e.peek(); ev != nil && ev.when < when {
		panic("sim: clock jump past a pending event")
	}
	e.now = when
}

// Hooked reports whether a dispatch hook is attached. A checkpoint image
// cannot carry the hook (it is observer code, not simulation state), so
// saving a hooked engine is refused.
func (e *Engine) Hooked() bool { return e.onDispatch != nil }

// Step dispatches exactly one event if available and reports whether it did.
func (e *Engine) Step() bool {
	if e.halted {
		return false
	}
	e.refresh()
	_, ok := e.next()
	if ok {
		e.dispatch()
	}
	e.closeRegister()
	return ok
}

// dispatch removes the next event — the held one, else the queue's
// earliest — advances the clock, and runs the event. It is the single
// dispatch path shared by Run, RunUntil and Step. It reads the event
// field by field, as enqueue wrote it: a whole-struct copy would reload
// the just-stored fields with wider loads (a store-forwarding stall).
//
//asap:hot the event loop: every simulated cycle of work funnels through here
func (e *Engine) dispatch() {
	var ev *event
	if e.holding {
		e.holding = false
		ev = &e.held
	} else if e.minSlot >= 0 {
		ev = &e.nodes[e.slots[e.minSlot].head]
	} else {
		ev = &e.overflow[0]
	}
	when, arg, kind, op := ev.when, ev.arg, ev.kind, ev.opIdx
	if ev != &e.held {
		if e.minSlot >= 0 {
			e.unlinkHead(e.minSlot)
		} else {
			e.popMin()
		}
		e.now = when
		e.refresh()
	}
	e.now = when
	e.dispatched++
	if e.onDispatch != nil {
		e.onDispatch.Dispatched(when) //asaplint:ignore alloccheck nil-guarded observability hook; off on measured runs
	}
	e.ops[op].RunEvent(int(kind), arg)
}
