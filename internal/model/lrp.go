package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
)

// LRP implements Lazy Release Persistency (Dananjaya et al., ASPLOS'20) as
// the paper characterizes it in §VII-E and Table IV: release persistency
// enforced in the cache hierarchy — buffered conservative flushing like
// HOPS, but cross-thread dependencies are resolved by *stalling the
// coherence transfer*: a forward request for a released cache line blocks
// until the releaser's earlier writes persist. The acquiring core therefore
// stalls at the acquire itself instead of at its persist buffer. "ASAP
// instead records the dependency information and persists writes
// speculatively without stalling. Hence, ASAP would perform better than
// LRP."
type LRP struct {
	flusher
	committedTS []uint64
	acq         []lrpAcquire
}

// lrpAcquire is one core's blocked coherence forward: while stalled, the
// core's operations are held and replayed, in order, when the source
// epoch persists.
type lrpAcquire struct {
	stalled bool
	began   sim.Cycles
	held    []lrpHeld
}

// lrpHeld is one operation held behind a blocked acquire.
type lrpHeld struct {
	op    int // lrpStore..lrpRelease
	line  mem.Line
	token mem.Token
	done  sim.Cont
}

const (
	lrpStore = iota
	lrpOfence
	lrpDfence
	lrpRelease
)

// lEvUnstall delivers the source epoch's persist to the blocked core arg.
const lEvUnstall = fEvPolicy

func newLRP(env Env) *LRP {
	m := &LRP{
		committedTS: make([]uint64, env.Cfg.Cores),
		acq:         make([]lrpAcquire, env.Cfg.Cores),
	}
	m.init(env, m, true)
	m.rp = true
	return m
}

// Name returns "lrp".
func (m *LRP) Name() string { return NameLRP }

// EpochCommitted reports whether epoch e has fully persisted.
func (m *LRP) EpochCommitted(e persist.EpochID) bool {
	return m.committedTS[e.Thread] >= e.TS
}

// hold parks op behind core's blocked acquire.
func (m *LRP) hold(core int, op lrpHeld) {
	a := &m.acq[core]
	a.held = append(a.held, op) //asaplint:ignore alloccheck contention-only path; at most one held op per serial core
}

// Store buffers the write, held behind any blocked acquire.
func (m *LRP) Store(core int, line mem.Line, token mem.Token, done sim.Cont) {
	if m.acq[core].stalled {
		m.hold(core, lrpHeld{op: lrpStore, line: line, token: token, done: done})
		return
	}
	m.flusher.Store(core, line, token, done)
}

// Ofence closes the epoch, held behind any blocked acquire.
func (m *LRP) Ofence(core int, done sim.Cont) {
	if m.acq[core].stalled {
		m.hold(core, lrpHeld{op: lrpOfence, done: done})
		return
	}
	m.flusher.Ofence(core, done)
}

// Dfence drains the persist buffer, held behind any blocked acquire.
func (m *LRP) Dfence(core int, done sim.Cont) {
	if m.acq[core].stalled {
		m.hold(core, lrpHeld{op: lrpDfence, done: done})
		return
	}
	m.flusher.Dfence(core, done)
}

// Release closes the epoch (one-sided barrier of release persistency),
// held behind any blocked acquire.
func (m *LRP) Release(core int, line mem.Line, done sim.Cont) {
	if m.acq[core].stalled {
		m.hold(core, lrpHeld{op: lrpRelease, line: line, done: done})
		return
	}
	m.flusher.Release(core, line, done)
}

// Conflict: an acquire of a released line whose release epoch has not
// persisted blocks the requesting core — LRP's stalled coherence forward.
func (m *LRP) Conflict(core int, cf *cache.Conflict) {
	src, ok := m.depSource(cf)
	if !ok {
		return
	}
	m.hc.interTEpochConflict.Inc()
	m.hc.lrpForwardStalls.Inc()
	if a := &m.acq[core]; !a.stalled {
		a.stalled = true
		a.began = m.env.Eng.Now()
		// The blocked core waits among the source epoch's Dependents;
		// under LRP a dependent names a core (Thread), not an epoch.
		ent := m.sourceEntry(src)
		ent.Dependents = append(ent.Dependents, persist.EpochID{Thread: core}) //asaplint:ignore alloccheck contention-only path; fan-out bounded by core count
	}
	// Make sure the source epoch is closed so it can persist.
	if w := m.cores[src.Thread]; w.et.CurrentTS() == src.TS {
		m.advance(w)
		m.kick(w)
	}
}

// nextFlushable: conservative oldest-epoch flushing, like HOPS.
func (m *LRP) nextFlushable(c *fcore) *persist.PBEntry {
	return c.pb.NextWaitingIn(c.et.OldestTS())
}

// committed unblocks the coherence forwards waiting on ent.
func (m *LRP) committed(c *fcore, ent *persist.ETEntry) {
	m.committedTS[c.id] = ent.TS
	for _, d := range ent.Dependents {
		m.env.Eng.AfterOp(m.env.Cfg.MsgLat, m.env.op(), lEvUnstall, uint64(d.Thread))
	}
}

// event runs the unstall.
func (m *LRP) event(kind int, arg uint64) {
	if kind != lEvUnstall {
		m.flusher.event(kind, arg)
		return
	}
	a := &m.acq[arg]
	if !a.stalled {
		return
	}
	m.hc.lrpStallCycles.Add(uint64(m.env.Eng.Now() - a.began))
	a.stalled = false
	held := a.held
	a.held = nil
	for _, h := range held {
		switch h.op {
		case lrpStore:
			m.flusher.Store(int(arg), h.line, h.token, h.done)
		case lrpOfence:
			m.flusher.Ofence(int(arg), h.done)
		case lrpDfence:
			m.flusher.Dfence(int(arg), h.done)
		default:
			m.flusher.Release(int(arg), h.line, h.done)
		}
	}
}

var _ Model = (*LRP)(nil)
