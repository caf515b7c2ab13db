// Fixture for schedcheck under a converted package path
// (asap/internal/machine): closure-form After/At are flagged unless
// annotated, typed-form scheduling and appends to non-engine slices pass.
package machine

type Cycles = uint64

type EventOp interface {
	RunEvent(kind int, arg uint64)
}

type event struct {
	when Cycles
	fn   func()
}

type Engine struct {
	nodes    []event
	overflow []event
}

// The real scheduling methods live in internal/sim; these stubs only
// give the fixture the right call-site shapes.
func (e *Engine) At(when Cycles, fn func())     {}
func (e *Engine) After(delay Cycles, fn func()) {}

func (e *Engine) ScheduleOp(when Cycles, op EventOp, kind int, arg uint64) {}
func (e *Engine) AfterOp(delay Cycles, op EventOp, kind int, arg uint64)   {}

type machine struct {
	eng *Engine
}

func (m *machine) RunEvent(kind int, arg uint64) {}

func (m *machine) hotPath() {
	m.eng.AfterOp(1, m, 0, 7) // typed form: ok
	m.eng.ScheduleOp(5, m, 1, 7)
	m.eng.After(1, func() {}) // want `closure-form m\.eng\.After allocates per event`
	m.eng.At(5, func() {})    // want `closure-form m\.eng\.At allocates per event`
}

func (m *machine) coldPath() {
	//asaplint:ignore schedcheck crash scheduling runs once per experiment
	m.eng.At(100, func() {})
	m.eng.After(2, func() {}) //asaplint:ignore schedcheck lock handoff is contention-only
}

func (m *machine) sideDoor() {
	m.eng.nodes = append(m.eng.nodes, event{0, nil})       // want `direct append to m\.eng\.nodes bypasses the engine's \(when, seq, sub\) event-queue ordering`
	m.eng.overflow = append(m.eng.overflow, event{0, nil}) // want `direct append to m\.eng\.overflow bypasses`
	spare := append(m.eng.nodes[:0:0], m.eng.overflow...)  // a copy out of the queue: not an append to it
	_ = spare
}

type jobs struct {
	events []event
}

func (m *machine) notAnEngine(j *jobs) {
	// A non-Engine events slice is someone else's business.
	j.events = append(j.events, event{})
}
