// Fixture for schedcheck under an unconverted package path
// (asap/internal/model): closure scheduling is still the norm there, but
// the engine's event queue stays off-limits.
package model

type Cycles = uint64

type event struct {
	when Cycles
	fn   func()
}

type Engine struct {
	nodes    []event
	overflow []event
}

// Stubs; the real methods live in internal/sim.
func (e *Engine) At(when Cycles, fn func())     {}
func (e *Engine) After(delay Cycles, fn func()) {}

type model struct {
	eng *Engine
}

func (m *model) schedule() {
	m.eng.After(3, func() {}) // closure form allowed: package not converted
	m.eng.At(9, func() {})
}

func (m *model) sideDoor() {
	m.eng.overflow = append(m.eng.overflow, event{}) // want `direct append to m\.eng\.overflow bypasses`
}
