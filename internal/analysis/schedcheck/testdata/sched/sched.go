// Fixture for schedcheck outside the engine's package
// (asap/internal/machine): scheduling through the engine's methods and
// appends to non-engine slices pass; appends to the engine's queue slices
// are flagged.
package machine

type Cycles = uint64

type EventOp interface {
	RunEvent(kind int, arg uint64)
}

type Op int32

type event struct {
	when Cycles
	kind int32
}

type Engine struct {
	nodes    []event
	overflow []event
}

// The real scheduling methods live in internal/sim; these stubs only
// give the fixture the right call-site shapes.
func (e *Engine) RegisterOp(op EventOp) Op                            { return 0 }
func (e *Engine) ScheduleOp(when Cycles, op Op, kind int, arg uint64) {}
func (e *Engine) AfterOp(delay Cycles, op Op, kind int, arg uint64)   {}

type machine struct {
	eng *Engine
	op  Op
}

func (m *machine) RunEvent(kind int, arg uint64) {}

func (m *machine) hotPath() {
	m.eng.AfterOp(1, m.op, 0, 7) // schedule methods: ok
	m.eng.ScheduleOp(5, m.op, 1, 7)
}

func (m *machine) sideDoor() {
	m.eng.nodes = append(m.eng.nodes, event{0, 0})        // want `direct append to m\.eng\.nodes bypasses the engine's \(when, seq\) event-queue ordering`
	m.eng.overflow = append(m.eng.overflow, event{0, 0})  // want `direct append to m\.eng\.overflow bypasses`
	spare := append(m.eng.nodes[:0:0], m.eng.overflow...) // a copy out of the queue: not an append to it
	_ = spare
}

type jobs struct {
	events []event
}

func (m *machine) notAnEngine(j *jobs) {
	// A non-Engine events slice is someone else's business.
	j.events = append(j.events, event{})
}
