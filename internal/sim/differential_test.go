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
}

// engineQueue adapts Engine: typed events go through ScheduleOp with the
// closure's index as the event arg; the rest go through a second receiver,
// an fnTable, so the program interleaves two receivers' events.
type engineQueue struct {
	e        *Engine
	closures []func()
	other    *fnTable
}

func (q *engineQueue) RunEvent(kind int, arg uint64) { q.closures[arg]() }

func (q *engineQueue) Now() Cycles                  { return q.e.Now() }
func (q *engineQueue) Pending() int                 { return q.e.Pending() }
func (q *engineQueue) RunLimit(limit Cycles) Cycles { return q.e.Run(limit) }
func (q *engineQueue) RunUntil(limit Cycles) Cycles { return q.e.RunUntil(limit) }
func (q *engineQueue) JumpTo(when Cycles)           { q.e.JumpTo(when) }
func (q *engineQueue) Step() bool                   { return q.e.Step() }

func (q *engineQueue) NextWhen() (Cycles, bool) {
	ev, _ := q.e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.when, true
}

func (q *engineQueue) Local(when Cycles, typed bool, fn func()) {
	if !typed {
		if q.other == nil {
			q.other = newFnTable(q.e)
		}
		q.other.at(when, fn)
		return
	}
	q.closures = append(q.closures, fn)
	q.e.ScheduleOp(when, q, 0, uint64(len(q.closures)-1))
}

// refQueue adapts refEngine.
type refQueue struct{ *refEngine }

func (q refQueue) Local(when Cycles, _ bool, fn func()) { q.at(when, fn) }

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
// identically, and the first divergence desynchronizes the records.
//
// Driver opcodes (low 3 bits of a byte): 0 schedules a closure event, 1
// and 2 a typed event, each at a delay drawn by the next byte; 3
// Run(limit), 4 RunUntil and 5 JumpTo at a drawn distance (JumpTo stops at
// the next pending event, never past it); 6 and 7 Step. A dispatched event
// reads one byte for its child count (0–3) and one per child for its kind
// (mod 3: 0 closure, 1 and 2 typed) and delay. The program ends with
// Run(0).
func runQueueProgram(q queueEngine, prog []byte) []dispatchRecord {
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
	var schedule func(kind byte)
	handler := func(id int) func() {
		return func() {
			got = append(got, dispatchRecord{id: id, when: q.Now()})
			b, _ := next()
			for n := b % 4; n > 0; n-- {
				k, ok := next()
				if !ok {
					return
				}
				schedule(k % 3)
			}
		}
	}
	schedule = func(kind byte) {
		when := q.Now() + delay()
		id := ids
		ids++
		q.Local(when, kind != 0, handler(id))
	}
	for {
		op, ok := next()
		if !ok {
			break
		}
		switch op % 8 {
		case 0, 1, 2:
			schedule(op % 8)
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
	}
	q.RunLimit(0)
	return append(got, dispatchRecord{id: -1 - q.Pending(), when: q.Now()})
}

// diffQueueProgram runs prog on a fresh Engine and a fresh refEngine and
// reports the first divergence.
func diffQueueProgram(t *testing.T, prog []byte) {
	t.Helper()
	eng := NewEngine()
	gotEng := runQueueProgram(&engineQueue{e: eng}, prog)
	gotRef := runQueueProgram(refQueue{&refEngine{}}, prog)
	for i := range min(len(gotEng), len(gotRef)) {
		if gotEng[i] != gotRef[i] {
			t.Fatalf("record %d diverges: engine %+v, reference %+v (negative ids are -1-pending after a driver step)", i, gotEng[i], gotRef[i])
		}
	}
	if len(gotEng) != len(gotRef) {
		t.Fatalf("record counts differ: engine %d, reference %d", len(gotEng), len(gotRef))
	}
	if err := eng.CheckQueue(); err != nil {
		t.Fatalf("drained engine fails its queue check: %v", err)
	}
}

// TestQueueDifferential drives the engine and the container/heap reference
// with adversarial random programs: delays at and around the wheel size
// and far past it, so events cross between the wheel and the overflow
// heap and tie on the same cycle from both sides, closure and typed events
// interleaved; and Run(limit), RunUntil and JumpTo interleaved with
// scheduling. Every dispatch and every clock and pending
// count in between must agree.
func TestQueueDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			prog := make([]byte, 6000)
			rng.Read(prog)
			diffQueueProgram(t, prog)
		})
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
	q := &engineQueue{e: e}
	q.Local(wheelSize, true, func() { order = append(order, "typed") })
	f.at(wheelSize, func() { order = append(order, "later") })
	e.Run(0)
	want := "[overflow wheel typed later]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("dispatch order %s, want %s", got, want)
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
	(&engineQueue{e: e}).Local(2*wheelSize, true, func() {})
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
