package sim

// fnTable runs test closures as typed events on one engine: the event kind
// indexes the closure, and a dispatched slot is recycled. It gives the
// engine tests the terse closure style without a closure form in the
// engine itself.
type fnTable struct {
	e        *Engine
	closures []func()
	free     []int
}

func newFnTable(e *Engine) *fnTable { return &fnTable{e: e} }

func (t *fnTable) RunEvent(kind int, _ uint64) {
	fn := t.closures[kind]
	t.closures[kind] = nil
	t.free = append(t.free, kind)
	fn()
}

// at schedules fn at absolute cycle when.
func (t *fnTable) at(when Cycles, fn func()) {
	var k int
	if n := len(t.free); n > 0 {
		k = t.free[n-1]
		t.free = t.free[:n-1]
		t.closures[k] = fn
	} else {
		k = len(t.closures)
		t.closures = append(t.closures, fn)
	}
	t.e.ScheduleOp(when, t, k, 0)
}

// after schedules fn delay cycles from now.
func (t *fnTable) after(delay Cycles, fn func()) { t.at(t.e.Now()+delay, fn) }

// Now reports the engine clock (the differential workload's scheduler
// surface).
func (t *fnTable) Now() Cycles { return t.e.Now() }
