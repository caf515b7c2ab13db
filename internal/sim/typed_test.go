package sim

import (
	"fmt"
	"testing"
)

// recordingOp is a typed-event receiver that logs (kind, arg, cycle).
type recordingOp struct {
	eng *Engine
	got [][3]uint64
}

func (r *recordingOp) RunEvent(kind int, arg uint64) {
	r.got = append(r.got, [3]uint64{uint64(kind), arg, r.eng.Now()})
}

// TestTypedEvents checks that ScheduleOp/AfterOp dispatch in (when, seq)
// order interleaved with another receiver's events, carrying kind and arg
// intact.
func TestTypedEvents(t *testing.T) {
	e := NewEngine()
	r := &recordingOp{eng: e}
	e.ScheduleOp(20, r, 2, 200)
	e.AfterOp(10, r, 1, 100)
	closureRan := false
	newFnTable(e).at(15, func() { closureRan = true })
	e.AfterOp(20, r, 3, 300)
	e.Run(0)
	want := [][3]uint64{{1, 100, 10}, {2, 200, 20}, {3, 300, 20}}
	if len(r.got) != len(want) {
		t.Fatalf("dispatched %d typed events, want %d", len(r.got), len(want))
	}
	for i, w := range want {
		if r.got[i] != w {
			t.Fatalf("typed event %d = %v, want %v", i, r.got[i], w)
		}
	}
	if !closureRan {
		t.Fatal("closure event interleaved with typed events did not run")
	}
}

// TestTypedTieBreakWithClosures: events of two receivers (a recorder and
// the tests' closure table) scheduled for the same cycle fire in schedule
// order, regardless of receiver.
func TestTypedTieBreakWithClosures(t *testing.T) {
	e := NewEngine()
	f := newFnTable(e)
	var order []int
	r := &funcOp{fn: func(kind int, _ uint64) { order = append(order, kind) }}
	e.ScheduleOp(5, r, 0, 0)
	f.at(5, func() { order = append(order, 1) })
	e.ScheduleOp(5, r, 2, 0)
	f.at(5, func() { order = append(order, 3) })
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle mixed-form events out of schedule order: %v", order)
		}
	}
}

type funcOp struct {
	fn func(kind int, arg uint64)
}

func (f *funcOp) RunEvent(kind int, arg uint64) { f.fn(kind, arg) }

// TestScheduleOpPastPanics mirrors TestSchedulePastPanics for the typed form.
func TestScheduleOpPastPanics(t *testing.T) {
	e := NewEngine()
	r := &recordingOp{eng: e}
	newFnTable(e).at(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleOp in the past did not panic")
			}
		}()
		e.ScheduleOp(5, r, 0, 0)
	})
	e.Run(0)
}

// TestTypedEventZeroAlloc pins the zero-allocation contract of the typed
// scheduling path: a steady-state AfterOp reschedule chain must not
// allocate at all.
func TestTypedEventZeroAlloc(t *testing.T) {
	e := NewEngine()
	var op *funcOp
	n := 0
	op = &funcOp{fn: func(int, uint64) {
		n++
		if n < 1000 {
			e.AfterOp(3, op, 0, 0)
		}
	}}
	// Warm up so the event slice reaches steady-state capacity.
	e.AfterOp(1, op, 0, 0)
	e.Run(0)
	n = 0
	allocs := testing.AllocsPerRun(10, func() {
		n = 0
		e.AfterOp(1, op, 0, 0)
		e.Run(0)
	})
	if allocs > 0 {
		t.Fatalf("typed event chain allocated %.1f times per run, want 0", allocs)
	}
}

// TestContResumeAndSchedule: a continuation resumes synchronously through
// Resume and, scheduled through ScheduleCont, takes its (when, seq) slot
// like any typed event; the zero Cont is distinguishable.
func TestContResumeAndSchedule(t *testing.T) {
	e := NewEngine()
	r := &recordingOp{eng: e}
	if !(Cont{}).IsZero() {
		t.Fatal("zero Cont not IsZero")
	}
	c := e.Cont(r, 4, 40)
	if c.IsZero() {
		t.Fatal("live Cont reports IsZero")
	}
	e.Resume(c)
	e.AfterOp(7, r, 1, 10)
	e.ScheduleCont(7, e.Cont(r, 2, 20))
	e.Run(0)
	want := [][3]uint64{{4, 40, 0}, {1, 10, 7}, {2, 20, 7}}
	if fmt.Sprint(r.got) != fmt.Sprint(want) {
		t.Fatalf("dispatch %v, want %v", r.got, want)
	}
}
