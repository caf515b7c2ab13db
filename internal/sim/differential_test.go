package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// scheduler is the common surface of Engine and refEngine the differential
// workload drives.
type scheduler interface {
	Now() Cycles
	after(delay Cycles, fn func())
}

// dispatchRecord is one observed dispatch: which logical event fired and at
// what cycle. Comparing the full sequences from both schedulers checks both
// time ordering and the (when, seq) tie-break.
type dispatchRecord struct {
	id   int
	when Cycles
}

// runDifferentialWorkload schedules a randomized, self-extending event
// workload on s and returns the dispatch sequence. All randomness comes
// from a fresh rand.Rand with the given seed, consumed in dispatch order —
// so two schedulers that dispatch identically consume the stream
// identically, and any ordering divergence immediately desynchronizes the
// recorded sequences.
//
// The workload deliberately produces heavy same-cycle ties (delays drawn
// from a tiny range), bursts of fan-out, and nested rescheduling — the
// patterns the machine, persist buffers and memory controllers generate.
func runDifferentialWorkload(s scheduler, seed int64, run func()) []dispatchRecord {
	rng := rand.New(rand.NewSource(seed))
	var got []dispatchRecord
	nextID := 0
	budget := 2000 // total events, bounds the self-extension

	var schedule func(delay Cycles)
	schedule = func(delay Cycles) {
		id := nextID
		nextID++
		s.after(delay, func() {
			got = append(got, dispatchRecord{id: id, when: s.Now()})
			// Fan out 0-3 children with tiny delays (0-4 cycles) so many
			// events collide on the same cycle and exercise the tie-break.
			for n := rng.Intn(4); n > 0 && budget > 0; n-- {
				budget--
				schedule(Cycles(rng.Intn(5)))
			}
		})
	}
	for i := 0; i < 50; i++ {
		budget--
		schedule(Cycles(rng.Intn(20)))
	}
	run()
	return got
}

// TestDifferentialDeterminism drives the shipped 4-ary typed heap and the
// reference container/heap scheduler with identical randomized workloads
// across several seeds and requires identical dispatch sequences. This is
// the determinism pin for the scheduler rewrite: (when, seq) is a total
// order, so any heap that pops the global minimum must dispatch in exactly
// this sequence.
func TestDifferentialDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			eng := NewEngine()
			gotNew := runDifferentialWorkload(newFnTable(eng), seed, func() { eng.Run(0) })

			ref := &refEngine{}
			gotRef := runDifferentialWorkload(ref, seed, func() { ref.Run() })

			if len(gotNew) != len(gotRef) {
				t.Fatalf("dispatch counts differ: engine %d, reference %d", len(gotNew), len(gotRef))
			}
			for i := range gotNew {
				if gotNew[i] != gotRef[i] {
					t.Fatalf("dispatch %d diverges: engine {id %d, cycle %d}, reference {id %d, cycle %d}",
						i, gotNew[i].id, gotNew[i].when, gotRef[i].id, gotRef[i].when)
				}
			}
		})
	}
}

// TestDifferentialDeterminismStepped re-runs one differential seed
// dispatching the engine one Step at a time, so the Run and Step paths are
// proven to share dispatch semantics.
func TestDifferentialDeterminismStepped(t *testing.T) {
	eng := NewEngine()
	gotNew := runDifferentialWorkload(newFnTable(eng), 7, func() {
		for eng.Step() {
		}
	})
	ref := &refEngine{}
	gotRef := runDifferentialWorkload(ref, 7, func() { ref.Run() })
	if len(gotNew) != len(gotRef) {
		t.Fatalf("dispatch counts differ: engine %d, reference %d", len(gotNew), len(gotRef))
	}
	for i := range gotNew {
		if gotNew[i] != gotRef[i] {
			t.Fatalf("dispatch %d diverges under Step: engine %+v, reference %+v", i, gotNew[i], gotRef[i])
		}
	}
}

// queueEngine is the surface the adversarial queue program drives. Engine
// and refEngine each sit behind an adapter implementing it.
type queueEngine interface {
	Now() Cycles
	Pending() int
	NextWhen() (Cycles, bool)
	Local(when Cycles, typed bool, fn func())
	RunLimit(limit Cycles) Cycles
	RunUntil(limit Cycles) Cycles
	JumpTo(when Cycles)
	Step() bool
	Halt()
	// Unhalt clears a Halt, so the program goes on after the stop.
	Unhalt()
	// Check reports a broken queue invariant (the reference has none).
	Check() error
}

// engineQueue adapts Engine: typed events go through ScheduleOp with the
// closure's index as the event arg; the rest go through a second receiver,
// an fnTable, so the program interleaves two receivers' events. It counts
// the schedules that took the direct-successor register, and those of
// them that spilled an event already held.
type engineQueue struct {
	e         *Engine
	op        Op
	closures  []func()
	other     *fnTable
	held      int
	displaced int
}

func newEngineQueue(e *Engine) *engineQueue {
	q := &engineQueue{e: e}
	q.op = e.RegisterOp(q)
	return q
}

func (q *engineQueue) RunEvent(kind int, arg uint64) { q.closures[arg]() }

func (q *engineQueue) Now() Cycles                  { return q.e.Now() }
func (q *engineQueue) Pending() int                 { return q.e.Pending() }
func (q *engineQueue) RunLimit(limit Cycles) Cycles { return q.e.Run(limit) }
func (q *engineQueue) RunUntil(limit Cycles) Cycles { return q.e.RunUntil(limit) }
func (q *engineQueue) JumpTo(when Cycles)           { q.e.JumpTo(when) }
func (q *engineQueue) Step() bool                   { return q.e.Step() }
func (q *engineQueue) Halt()                        { q.e.Halt() }
func (q *engineQueue) Unhalt()                      { q.e.halted = false }
func (q *engineQueue) Check() error                 { return q.e.CheckQueue() }

// NextWhen reports the earliest pending event's cycle, the held one's
// inside a run.
func (q *engineQueue) NextWhen() (Cycles, bool) {
	if q.e.holding {
		return q.e.held.when, true
	}
	ev, _ := q.e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.when, true
}

func (q *engineQueue) Local(when Cycles, typed bool, fn func()) {
	wasHolding := q.e.holding
	if !typed {
		if q.other == nil {
			q.other = newFnTable(q.e)
		}
		q.other.at(when, fn)
	} else {
		q.closures = append(q.closures, fn)
		q.e.ScheduleOp(when, q.op, 0, uint64(len(q.closures)-1))
	}
	if q.e.holding && q.e.held.seq == q.e.seq-1 {
		q.held++
		if wasHolding {
			q.displaced++
		}
	}
}

// refQueue adapts refEngine.
type refQueue struct{ *refEngine }

func (q refQueue) Local(when Cycles, _ bool, fn func()) { q.at(when, fn) }
func (q refQueue) Halt()                                { q.halted = true }
func (q refQueue) Unhalt()                              { q.halted = false }
func (q refQueue) Check() error                         { return nil }

// queueDelays are the schedule distances the adversarial program draws
// from: same-cycle and near-future work, every edge of the wheel window
// (W-1 is the last wheel cycle, W the first overflow one), the overflow
// heap's range, and far-future events that wrap the wheel many times.
var queueDelays = []Cycles{
	0, 0, 1, 2, 3, 5, 17, 255,
	wheelSize - 1, wheelSize, wheelSize + 1, 2*wheelSize - 1, 2 * wheelSize, 2*wheelSize + 1, 1 << 14, 1 << 15,
}

// runQueueProgram interprets prog as a schedule-and-drive program on q and
// returns everything observable: each dispatch as {id, cycle}, and after
// each driver step the clock and pending count as {-1-pending, now}. The
// program is consumed through one cursor by the driver loop and by event
// handlers alike, so two engines that dispatch identically read it
// identically, and the first divergence desynchronizes the records. After
// every driver step q's queue must pass its check; the first failure
// ends the program and is returned.
//
// Driver opcodes (low 3 bits of a byte): 0 schedules a closure event, 1
// and 2 a typed event, each at a delay drawn by the next byte; 3
// Run(limit), 4 RunUntil and 5 JumpTo at a drawn distance (JumpTo stops at
// the next pending event, never past it); 6 and 7 Step. A halted run is
// unhalted after its driver step. A dispatched event reads one byte: its
// low 2 bits are its child count (0–3), and when the next 4 bits are all
// set it halts the run after scheduling them. Each child reads a byte for
// its kind, mod 4: 0 a closure and 1 a typed event at a delay drawn by the
// next byte; 2 a typed event at no delay (same cycle); 3 a typed event
// halfway to the earliest pending one, so strictly earlier than every
// pending event unless that one is less than two cycles ahead. The
// program ends with Run(0).
func runQueueProgram(q queueEngine, prog []byte) ([]dispatchRecord, error) {
	var got []dispatchRecord
	pos := 0
	next := func() (byte, bool) {
		if pos >= len(prog) {
			return 0, false
		}
		pos++
		return prog[pos-1], true
	}
	delay := func() Cycles {
		b, _ := next()
		return queueDelays[int(b)%len(queueDelays)]
	}
	ids := 0
	var schedule func(typed bool, when Cycles)
	handler := func(id int) func() {
		return func() {
			got = append(got, dispatchRecord{id: id, when: q.Now()})
			b, _ := next()
			for n := b % 4; n > 0; n-- {
				k, ok := next()
				if !ok {
					return
				}
				switch k % 4 {
				case 0, 1:
					schedule(k%4 == 1, q.Now()+delay())
				case 2:
					schedule(true, q.Now())
				case 3:
					when := q.Now()
					if w, ok := q.NextWhen(); ok {
						when += (w - when) / 2
					}
					schedule(true, when)
				}
			}
			if b>>2&0xf == 0xf {
				q.Halt()
			}
		}
	}
	schedule = func(typed bool, when Cycles) {
		id := ids
		ids++
		q.Local(when, typed, handler(id))
	}
	for {
		op, ok := next()
		if !ok {
			break
		}
		switch op % 8 {
		case 0, 1, 2:
			schedule(op%8 != 0, q.Now()+delay())
		case 3:
			q.RunLimit(q.Now() + delay())
		case 4:
			q.RunUntil(q.Now() + delay())
		case 5:
			to := q.Now() + delay()
			if w, ok := q.NextWhen(); ok && w < to {
				to = w
			}
			q.JumpTo(to)
		default:
			q.Step()
		}
		got = append(got, dispatchRecord{id: -1 - q.Pending(), when: q.Now()})
		if err := q.Check(); err != nil {
			return got, fmt.Errorf("after driver step %d: %w", len(got), err)
		}
		q.Unhalt()
	}
	q.RunLimit(0)
	got = append(got, dispatchRecord{id: -1 - q.Pending(), when: q.Now()})
	return got, q.Check()
}

// diffQueueProgram runs prog on a fresh Engine and a fresh refEngine,
// reports the first divergence or broken queue invariant, and returns the
// engine's adapter for its register counts.
func diffQueueProgram(t *testing.T, prog []byte) *engineQueue {
	t.Helper()
	q := newEngineQueue(NewEngine())
	gotEng, err := runQueueProgram(q, prog)
	if err != nil {
		t.Fatal(err)
	}
	gotRef, _ := runQueueProgram(refQueue{&refEngine{}}, prog)
	for i := range min(len(gotEng), len(gotRef)) {
		if gotEng[i] != gotRef[i] {
			t.Fatalf("record %d diverges: engine %+v, reference %+v (negative ids are -1-pending after a driver step)", i, gotEng[i], gotRef[i])
		}
	}
	if len(gotEng) != len(gotRef) {
		t.Fatalf("record counts differ: engine %d, reference %d", len(gotEng), len(gotRef))
	}
	return q
}

// TestQueueDifferential drives the engine and the container/heap reference
// with adversarial random programs: delays at and around the wheel size
// and far past it, so events cross between the wheel and the overflow
// heap and tie on the same cycle from both sides, closure and typed events
// interleaved; handlers scheduling same-cycle events and events strictly
// earlier than every pending one, which take the direct-successor
// register and spill one already held; and Run(limit), RunUntil, Halt,
// JumpTo and Step interleaved with scheduling. Every dispatch and every
// clock and pending count in between must agree, and the queue must pass
// CheckQueue at every stop. The programs must use the register.
func TestQueueDifferential(t *testing.T) {
	held, displaced := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			prog := make([]byte, 6000)
			rng.Read(prog)
			q := diffQueueProgram(t, prog)
			held += q.held
			displaced += q.displaced
		})
	}
	t.Logf("%d schedules took the register, %d of them displacing a held event", held, displaced)
	if held == 0 || displaced == 0 {
		t.Fatalf("programs put %d events in the register, %d of them displacing a held one; want both > 0", held, displaced)
	}
}

// TestQueueOverflowTie pins the case the merge exists for: an event that
// entered the overflow heap (scheduled wheelSize cycles ahead) and one that
// entered the wheel later for the same cycle dispatch in seq order, and so
// do the events of two receivers scheduled for that cycle after them.
func TestQueueOverflowTie(t *testing.T) {
	e := NewEngine()
	f := newFnTable(e)
	var order []string
	f.at(wheelSize, func() { order = append(order, "overflow") })
	f.at(1, func() {
		f.at(wheelSize, func() { order = append(order, "wheel") })
	})
	e.RunUntil(1)
	if len(e.overflow) != 1 || e.Pending() != 2 {
		t.Fatalf("want one overflow and one wheel event, have %d overflow of %d pending", len(e.overflow), e.Pending())
	}
	q := newEngineQueue(e)
	q.Local(wheelSize, true, func() { order = append(order, "typed") })
	f.at(wheelSize, func() { order = append(order, "later") })
	e.Run(0)
	want := "[overflow wheel typed later]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("dispatch order %s, want %s", got, want)
	}
}

// TestRegisterSpillOrder pins the register's spill path, wheel side and
// overflow side: a held event displaced by a strictly earlier schedule
// becomes the queue's minimum, so an event scheduled after it for a later
// cycle, but still before the rest of the queue, dispatches after it.
func TestRegisterSpillOrder(t *testing.T) {
	for _, ahead := range []Cycles{10, 2 * wheelSize} {
		e := NewEngine()
		f := newFnTable(e)
		var order []string
		log := func(name string) func() { return func() { order = append(order, name) } }
		f.at(4*wheelSize, log("last"))
		f.at(1, func() {
			f.after(ahead, log("displaced"))
			f.after(1, func() {
				order = append(order, "earlier")
				f.after(ahead, log("after"))
			})
			if !e.holding || e.held.when != 2 {
				t.Fatalf("ahead %d: the earlier event is not held", ahead)
			}
		})
		e.Run(0)
		want := "[earlier displaced after last]"
		if got := fmt.Sprint(order); got != want {
			t.Errorf("ahead %d: dispatch order %s, want %s", ahead, got, want)
		}
	}
}

// TestScheduleAtLastCycle: the empty queue's floor is the last cycle, so
// an event there, scheduled inside a run after the held one, must still
// register as the queue's minimum and be dispatched by the same run.
func TestScheduleAtLastCycle(t *testing.T) {
	e := NewEngine()
	f := newFnTable(e)
	var order []string
	f.at(1, func() {
		f.after(1, func() { order = append(order, "next") })
		f.at(maxCycles, func() { order = append(order, "last") })
	})
	e.Run(0)
	if got := fmt.Sprint(order); got != "[next last]" || e.Now() != maxCycles || e.Pending() != 0 {
		t.Fatalf("dispatched %s, clock %d, %d pending; want [next last] at the last cycle, none pending", got, e.Now(), e.Pending())
	}
}

// TestEventSize pins the queue element at 40 pointer-free bytes: every
// schedule and dispatch copies it, and the overflow heap permutes it.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Fatalf("event is %d bytes, want 40", got)
	}
}

// TestCheckQueueRejectsOverflowSeq pins the check that keeps (when, seq) a
// total order on a restored engine: an overflow event whose seq is at or
// above the counter could tie the next event scheduled for its cycle.
func TestCheckQueueRejectsOverflowSeq(t *testing.T) {
	e := NewEngine()
	(newEngineQueue(e)).Local(2*wheelSize, true, func() {})
	if err := e.CheckQueue(); err != nil {
		t.Fatalf("valid queue fails its check: %v", err)
	}
	for _, seq := range []uint64{e.seq, e.seq + 7} {
		e.overflow[0].seq = seq
		err := e.CheckQueue()
		if err == nil || !strings.Contains(err.Error(), "overflow event seq") {
			t.Fatalf("overflow seq %d with counter %d: got %v, want an overflow seq error", seq, e.seq, err)
		}
	}
}

// TestCheckQueueRejectsRegister: between runs the register is empty, so a
// restored engine with any register state set is malformed — a held event
// would dispatch ahead of the queue, and a nonzero floor would let the next
// schedule from outside a run take the register.
func TestCheckQueueRejectsRegister(t *testing.T) {
	for name, set := range map[string]func(e *Engine){
		"holding": func(e *Engine) { e.holding = true },
		"held":    func(e *Engine) { e.held.when = 3 },
		"floor":   func(e *Engine) { e.floor = 3 },
		"minSlot": func(e *Engine) { e.minSlot = noSlot },
	} {
		e := NewEngine()
		newFnTable(e).at(5, func() {})
		set(e)
		err := e.CheckQueue()
		if err == nil || !strings.Contains(err.Error(), "register") {
			t.Errorf("%s set: got %v, want a register error", name, err)
		}
	}
}

// FuzzEngineOrder explores queue programs (see runQueueProgram) for any
// dispatch, clock or pending-count divergence between the engine and the
// reference heap. testdata/fuzz/FuzzEngineOrder holds seed programs every
// plain `go test` replays. Explore with
//
//	go test ./internal/sim -run '^$' -fuzz FuzzEngineOrder -fuzztime 30s
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 8, 3, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<14 {
			return
		}
		diffQueueProgram(t, prog)
	})
}
