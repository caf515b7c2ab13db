// Package checkpoint snapshots a complete simulated machine — caches and
// directory, persist buffers and epoch/recovery tables, memory-controller
// job and reply rings, model state, per-core trace cursors, and the sim
// engine's typed event queue with its free-list indices — so a run can be
// forked from a warmed state (Capture/Fork, in memory, O(state)) or saved
// to a compact versioned binary image and resumed in another process
// (Save/Load). Both paths continue byte-identically to an uninterrupted
// run: same results, same stats, same NVM image (pinned by the package's
// differential tests).
//
// This is the gem5 checkpointing workflow adapted to a deterministic
// single-goroutine simulator: because the machine is a pure object graph on
// one goroutine with no wall-clock or RNG inputs, a deep snapshot of that
// graph *is* the full architectural and microarchitectural state, and
// restoring it replays the identical future. The heavy user is the crash
// campaign (internal/crash), which forks one warmed machine per injection
// point instead of re-simulating the prefix N times.
package checkpoint

import (
	"reflect"
	"unsafe"

	"asap/internal/machine"
	"asap/internal/sim"
)

// Checkpoint is an in-memory snapshot of one machine, taken by
// Capture and moved to a later instant by Recapture. It rewinds that same
// machine instance: Fork puts the machine
// back into the captured state in place, preserving every object identity
// (pointers and slice backing arrays). Forks are therefore
// sequential — each Fork abandons whatever the previous fork simulated —
// which is exactly the shape a crash campaign needs: fork, crash, check,
// fork again.
type Checkpoint struct {
	m     *machine.Machine
	cycle sim.Cycles
	w     walker
}

// Capture snapshots m's full state at the current cycle. The machine must
// not be mid-dispatch: call between Advance boundaries. Attached observability sinks (tracer,
// timeline, progress) are deliberately not rolled back by a later Fork —
// they are append-only history, not simulation state.
func Capture(m *machine.Machine) (*Checkpoint, error) {
	c := &Checkpoint{m: m}
	c.Recapture()
	return c, nil
}

// Recapture re-snapshots the checkpoint's machine at its current cycle,
// replacing the previous snapshot: after it, Fork rewinds to the new
// instant and the old one is gone. The snapshot is rebuilt in the storage
// the previous one used (the byte arena keeps its capacity; region shadows
// and slice copies of objects still reachable are refilled),
// so a caller that moves one checkpoint forward through a run — the crash
// campaign's frontier — allocates its arena once instead of once per
// capture. The same preconditions as Capture apply: not mid-dispatch.
func (c *Checkpoint) Recapture() {
	c.cycle = c.m.Eng.Now()
	c.w.capture(unsafe.Pointer(c.m), reflect.TypeOf(*c.m))
}

// Cycle reports the simulation time the snapshot was taken at.
func (c *Checkpoint) Cycle() sim.Cycles { return c.cycle }

// Machine returns the machine this checkpoint captured (and rewinds).
func (c *Checkpoint) Machine() *machine.Machine { return c.m }

// Fork rewinds the captured machine to the snapshot instant and returns it.
// The rewind is O(state): linear passes (typed region copies, arena
// memmoves, slice contents) with no serialization and no new object graph.
// After Fork the machine continues byte-identically to how it continued the
// first time — including a re-fork after running further: the restore also
// rewinds the engine clock, event queue, and sequence counters.
func (c *Checkpoint) Fork() *machine.Machine {
	c.w.restore()
	return c.m
}
