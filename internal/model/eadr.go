package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
)

// EADR models a system with enhanced ADR (or, equivalently for performance,
// BBB's battery-backed buffers — the paper plots the two as one curve): the
// whole cache hierarchy is inside the persistence domain, so a store is
// durable the moment it retires. Fences cost only their pipeline overhead
// and no flush traffic is needed for ordering. This is the "ideal" bound
// ASAP is measured against (within 3.9% on average, §VII-A).
//
// Write traffic to NVM happens on cache evictions and at power failure; it
// is not modelled on the performance path (eADR does not appear in the
// paper's write-endurance figure).
type EADR struct {
	env     Env
	ts      []uint64
	nStores []uint64
}

func newEADR(env Env) *EADR {
	return &EADR{env: env, ts: make([]uint64, env.Cfg.Cores), nStores: make([]uint64, env.Cfg.Cores)}
}

// Name returns "eadr".
func (m *EADR) Name() string { return NameEADR }

// Stats returns the shared stat set.
func (m *EADR) Stats() *stats.Set { return m.env.St }

// CurrentTS returns the fence-delimited epoch (tracked for the ledger).
func (m *EADR) CurrentTS(core int) uint64 { return m.ts[core] + 1 }

// EpochCommitted: everything in the cache hierarchy survives a crash.
func (m *EADR) EpochCommitted(e persist.EpochID) bool { return true }

// Store is durable immediately.
func (m *EADR) Store(core int, line mem.Line, token mem.Token, done sim.Cont) {
	m.nStores[core]++
	m.env.Ledger.RecordWrite(persist.EpochID{Thread: core, TS: m.ts[core] + 1}, line, token)
	m.env.Ledger.EpochCommitted(persist.EpochID{Thread: core, TS: m.ts[core] + 1})
	m.env.Eng.Resume(done)
}

// Ofence and Dfence are free beyond their pipeline cost.
func (m *EADR) Ofence(core int, done sim.Cont) { m.ts[core]++; m.env.Eng.Resume(done) }
func (m *EADR) Dfence(core int, done sim.Cont) { m.ts[core]++; m.env.Eng.Resume(done) }

// Release advances the epoch counter; no flush is needed.
func (m *EADR) Release(core int, line mem.Line, done sim.Cont) {
	m.ts[core]++
	m.env.Eng.Resume(done)
}

// Acquire and Conflict need no action: ordering is trivially satisfied.
func (m *EADR) Acquire(core int, line mem.Line)       {}
func (m *EADR) Conflict(core int, cf *cache.Conflict) {}

// StartDrain completes immediately.
func (m *EADR) StartDrain(core int, done sim.Cont) { m.env.Eng.Resume(done) }

// PBOccupancy and PBBlocked: no persist buffer.
func (m *EADR) PBOccupancy(core int) int { return 0 }
func (m *EADR) PBBlocked(core int) bool  { return false }

var _ Model = (*EADR)(nil)

// PBHasLine: eADR needs no persist buffer.
func (m *EADR) PBHasLine(core int, line mem.Line) bool { return false }
