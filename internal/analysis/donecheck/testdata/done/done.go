// Package donefixture exercises the donecheck analyzer: done must be
// resumed or handed off exactly once on every path.
package donefixture

// Cont stands in for sim.Cont, the typed continuation.
type Cont struct {
	op, kind int32
	arg      uint64
}

func (c Cont) IsZero() bool { return c.op == 0 }

type Engine struct{}

func (e *Engine) Resume(c Cont)                    {}
func (e *Engine) ScheduleCont(when uint64, c Cont) {}

var eng = &Engine{}

// OK: direct resumption on the single path.
func DirectResume(done Cont) {
	eng.Resume(done)
}

// OK: handoff to another call transfers the obligation.
func Handoff(done Cont) {
	helper(done)
}

func helper(c Cont) { eng.Resume(c) }

// OK: scheduling the continuation is its one consumption.
func Delay(late bool, done Cont) {
	if late {
		eng.ScheduleCont(100, done)
		return
	}
	eng.Resume(done)
}

type stall struct {
	done  Cont
	began uint64
}

type core struct{ waiter stall }

// OK: parking done in a field for later resumption, with a panic path; the
// IsZero probe of the field is not a use of done.
func (c *core) Wait(done Cont) {
	if !c.waiter.done.IsZero() {
		panic("busy")
	}
	c.waiter = stall{done: done}
}

// OK: an IsZero probe of done itself does not consume it.
func Probe(done Cont) {
	if done.IsZero() {
		panic("no continuation")
	}
	eng.Resume(done)
}

// OK: defer fires exactly once.
func Deferred(done Cont) {
	defer eng.Resume(done)
}

// Missing: the false branch returns without resuming done.
func MissingOnBranch(ok bool, done Cont) {
	if ok {
		eng.Resume(done)
	}
} // want `MissingOnBranch: done is never invoked on some path returning here`

// Missing: early return skips the resumption.
func EarlyReturn(n int, done Cont) {
	if n > 0 {
		return // want `EarlyReturn: done is never invoked on some path returning here`
	}
	eng.Resume(done)
}

// Double: unconditional second resumption.
func Double(done Cont) {
	eng.Resume(done)
	eng.Resume(done)
} // want `Double: done may be invoked more than once on some path returning here`

// Double: one branch parks done after resuming it.
func BranchDouble(ok bool, c *core, done Cont) {
	eng.Resume(done)
	if ok {
		c.waiter = stall{done: done}
	}
} // want `BranchDouble: done may be invoked more than once on some path returning here`

// Double: a loop may hand done off on several iterations.
func LoopHandoff(n int, done Cont) {
	for i := 0; i < n; i++ {
		helper(done)
	}
} // want `LoopHandoff: done is never invoked on some path returning here` `LoopHandoff: done may be invoked more than once on some path returning here`

// OK: local closures capturing done are aliases; defining them is free,
// each use consumes done once.
func AckNack(ok bool, done Cont) {
	ack := func() { eng.Resume(done) }
	nack := func() { helper(done) }
	if ok {
		ack()
		return
	}
	nack()
}

// Double through an alias: two alias uses on one path.
func AliasDouble(done Cont) {
	ack := func() { eng.Resume(done) }
	ack()
	ack()
} // want `AliasDouble: done may be invoked more than once on some path returning here`

// Missing through an alias: one branch never uses it.
func AliasSkipped(ok bool, done Cont) {
	ack := func() { eng.Resume(done) }
	if ok {
		ack()
	}
} // want `AliasSkipped: done is never invoked on some path returning here`

// Not a continuation: a parameter named done of another type is ignored.
func NotCont(done func()) {}

// Suppressed: the ignore directive on the line above the closing brace
// silences the zero-use finding.
func Intentional(done Cont) {
	_ = eng
	//asaplint:ignore donecheck completion is signalled out of band in this fixture
}
