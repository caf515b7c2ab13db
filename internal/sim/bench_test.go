package sim

import (
	"math/rand"
	"testing"
)

// benchTickOp is the typed-event receiver for the EventThroughput rungs: a
// depth-1 self-rescheduling chain.
type benchTickOp struct {
	e  *Engine
	op Op
	n  int
	N  int
}

func newBenchTickOp(e *Engine, n int) *benchTickOp {
	t := &benchTickOp{e: e, N: n}
	t.op = e.RegisterOp(t)
	return t
}

func (t *benchTickOp) RunEvent(kind int, arg uint64) {
	t.n++
	if t.n < t.N {
		t.e.AfterOp(3, t.op, 0, 0)
	}
}

// BenchmarkEventThroughputTyped measures raw simulator event dispatch
// rate — the figure that bounds how much simulated time per wall-second
// every experiment gets. Gated at 0 allocs/op through benchdiff.
func BenchmarkEventThroughputTyped(b *testing.B) {
	e := NewEngine()
	op := newBenchTickOp(e, b.N)
	e.AfterOp(1, op.op, 0, 0)
	b.ResetTimer()
	e.Run(0)
}

// BenchmarkEventThroughputHooked is BenchmarkEventThroughputTyped with a
// dispatch hook attached — the tracing-on configuration. The delta
// between the two is the cost tracing adds per dispatched event; CI gates
// both through benchdiff.
func BenchmarkEventThroughputHooked(b *testing.B) {
	e := NewEngine()
	var dispatched dispatchCounter
	e.SetDispatchHook(&dispatched)
	op := newBenchTickOp(e, b.N)
	e.AfterOp(1, op.op, 0, 0)
	b.ResetTimer()
	e.Run(0)
	if dispatched == 0 {
		b.Fatal("dispatch hook never fired")
	}
}

// dispatchCounter is a DispatchHook counting dispatches.
type dispatchCounter uint64

func (c *dispatchCounter) Dispatched(Cycles) { *c++ }

// fanoutOp is BenchmarkEventFanout's receiver: event kind 0 carries the
// scheduling index j in arg, and every tenth one schedules a kind-1 child.
type fanoutOp struct {
	e  *Engine
	op Op
}

func (f *fanoutOp) RunEvent(kind int, arg uint64) {
	if kind == 0 && arg%10 == 0 {
		f.e.AfterOp(5, f.op, 1, 0)
	}
}

// BenchmarkEventFanout measures dispatch with a deep, wide queue (the
// pattern MC drain + per-core flushers produce).
func BenchmarkEventFanout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		op := &fanoutOp{e: e}
		op.op = e.RegisterOp(op)
		for j := 0; j < 1000; j++ {
			e.ScheduleOp(Cycles(j%97+1), op.op, 0, uint64(j))
		}
		e.Run(0)
	}
}

// machineShapeDepth is the pending-event depth BenchmarkEventQueueMachineShape
// holds: long cceh/nstore runs average 5–13 pending events across the
// models.
const machineShapeDepth = 10

// machineShapeDelays returns a fixed table of schedule distances drawn
// from the spread measured over long runs under every model, which follows
// from the Table II latencies: most events land a few to a few dozen
// cycles ahead (cache, MsgLat, FlushLat), 96% under 256 cycles, 98.75%
// under 1024 (one wheel), and a 1.25% tail of NVM-bound and speculative
// drains reaching out to 2^14 cycles.
func machineShapeDelays() []Cycles {
	rng := rand.New(rand.NewSource(1))
	d := make([]Cycles, 4096)
	for i := range d {
		switch p := rng.Intn(10000); {
		case p < 6000:
			d[i] = Cycles(1 + rng.Intn(8))
		case p < 8500:
			d[i] = Cycles(9 + rng.Intn(56))
		case p < 9600:
			d[i] = Cycles(65 + rng.Intn(191))
		case p < 9875:
			d[i] = Cycles(256 + rng.Intn(768))
		default:
			d[i] = Cycles(1024 + rng.Intn(1<<14-1024))
		}
	}
	return d
}

// shapeOp keeps the queue at machineShapeDepth: every dispatch schedules
// one replacement until the budget runs out.
type shapeOp struct {
	e      *Engine
	op     Op
	delays []Cycles
	next   int
	left   int
}

func (s *shapeOp) RunEvent(kind int, arg uint64) {
	if s.left == 0 {
		return
	}
	s.left--
	s.e.AfterOp(s.delays[s.next&(len(s.delays)-1)], s.op, 0, 0)
	s.next++
}

// BenchmarkEventQueueMachineShape measures typed dispatch at the queue
// shape a machine run produces — about ten events pending, schedule
// distances from the measured spread, a small tail past the wheel — where
// the depth-1 EventThroughput rungs keep only one event in flight. One op
// is one dispatch.
func BenchmarkEventQueueMachineShape(b *testing.B) {
	e := NewEngine()
	op := &shapeOp{e: e, delays: machineShapeDelays(), left: b.N}
	op.op = e.RegisterOp(op)
	for k := 0; k < machineShapeDepth && op.left > 0; k++ {
		op.RunEvent(0, 0)
	}
	b.ResetTimer()
	e.Run(0)
}
