// Fixture for schedcheck under the engine's own package path
// (asap/internal/sim): the queue implementation appends to its own slices
// freely.
package sim

type Cycles = uint64

type event struct {
	when Cycles
	kind int32
}

type Engine struct {
	nodes    []event
	overflow []event
}

func (e *Engine) ScheduleOp(when Cycles, kind int32) { e.push(event{when, kind}) }

func (e *Engine) push(ev event) {
	e.overflow = append(e.overflow, ev) // the engine owns its heap
	e.nodes = append(e.nodes, ev)       // and its wheel slab
}
