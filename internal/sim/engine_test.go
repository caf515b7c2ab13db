package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	f := newFnTable(e)
	var got []int
	f.after(30, func() { got = append(got, 3) })
	f.after(10, func() { got = append(got, 1) })
	f.after(20, func() { got = append(got, 2) })
	e.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestTieBreakIsScheduleOrder(t *testing.T) {
	e := NewEngine()
	f := newFnTable(e)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		f.at(5, func() { got = append(got, i) })
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events dispatched out of schedule order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	f := newFnTable(e)
	var trace []Cycles
	f.after(1, func() {
		trace = append(trace, e.Now())
		f.after(5, func() {
			trace = append(trace, e.Now())
		})
		f.after(0, func() {
			trace = append(trace, e.Now())
		})
	})
	e.Run(0)
	if len(trace) != 3 || trace[0] != 1 || trace[1] != 1 || trace[2] != 6 {
		t.Fatalf("nested schedule times wrong: %v", trace)
	}
}

func TestRunLimit(t *testing.T) {
	e := NewEngine()
	f := newFnTable(e)
	fired := false
	f.at(100, func() { fired = true })
	end := e.Run(50)
	if fired {
		t.Fatal("event beyond the limit fired")
	}
	if end != 50 {
		t.Fatalf("Run returned %d, want 50", end)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run(0)
	if !fired {
		t.Fatal("event did not fire after resuming")
	}
}

func TestHalt(t *testing.T) {
	e := NewEngine()
	f := newFnTable(e)
	count := 0
	for i := Cycles(1); i <= 10; i++ {
		f.at(i, func() {
			count++
			if count == 3 {
				e.Halt()
			}
		})
	}
	e.Run(0)
	if count != 3 {
		t.Fatalf("dispatched %d events after Halt, want 3", count)
	}
	if !e.Halted() {
		t.Fatal("Halted() false after Halt")
	}
}

// TestResetAfterHalt: an engine halted with events pending on the wheel
// and in the overflow heap and past cycle zero, resets to the
// state NewEngine makes, and then dispatches a schedule exactly as a new
// engine does.
func TestResetAfterHalt(t *testing.T) {
	schedule := func(e *Engine) (got []Cycles) {
		f := newFnTable(e)
		for _, at := range []Cycles{7, 3, 3, 2500, 40, 9000} {
			f.at(at, func() { got = append(got, e.Now()) })
		}
		e.Run(0)
		return got
	}
	e := NewEngine()
	f := newFnTable(e)
	for i := Cycles(1); i <= 20; i++ {
		f.at(i*97, func() {
			if e.Now() > 500 {
				e.Halt()
			}
		})
	}
	e.Run(0)
	if e.Pending() == 0 || !e.Halted() {
		t.Fatal("the run left nothing pending to reset")
	}
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Dispatched() != 0 || e.Halted() || len(e.ops) != 0 {
		t.Fatalf("reset engine: now %d, %d pending, %d dispatched, halted %v, %d receivers",
			e.Now(), e.Pending(), e.Dispatched(), e.Halted(), len(e.ops))
	}
	if err := e.CheckQueue(); err != nil {
		t.Fatal(err)
	}
	want := schedule(NewEngine())
	if got := schedule(e); !slices.Equal(got, want) {
		t.Fatalf("reset engine dispatched at %v, a new one at %v", got, want)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	f := newFnTable(e)
	f.at(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		f.at(5, func() {})
	})
	e.Run(0)
}

func TestStep(t *testing.T) {
	e := NewEngine()
	f := newFnTable(e)
	n := 0
	f.after(1, func() { n++ })
	f.after(2, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatal("first Step failed")
	}
	if !e.Step() || n != 2 {
		t.Fatal("second Step failed")
	}
	if e.Step() {
		t.Fatal("Step on empty queue reported true")
	}
}

// TestMonotonicClock (property): for any delay sequence, dispatch times are
// non-decreasing.
func TestMonotonicClock(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		f := newFnTable(e)
		var times []Cycles
		for _, d := range delays {
			f.after(Cycles(d), func() { times = append(times, e.Now()) })
		}
		e.Run(0)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNSConversion(t *testing.T) {
	if NS(1) != 2 || NS(90) != 180 || NS(175) != 350 {
		t.Fatal("NS conversion wrong for 2 GHz clock")
	}
}
