package model

import (
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
)

// LBPP implements LB++ (Joshi et al., MICRO'15, "Efficient persist
// barriers") as the paper characterizes it in §VII-E and Table IV: epoch
// persistency tracked in the cache hierarchy, with the strictest flushing
// discipline of the compared designs — an epoch's writes begin flushing
// only after the epoch is *complete* (closed by a barrier) and all earlier
// epochs have fully persisted. The open epoch's writes sit in the cache.
// Cross-thread dependencies use the same epoch-splitting deadlock avoidance
// (LB++ is where ASAP borrows it from [14]); resolution is by waiting for
// the source epoch to persist, observed through coherence — the flusher's
// default Conflict rule under epoch persistency. The paper expects LB++
// below HOPS and ASAP.
type LBPP struct {
	flusher
}

func newLBPP(env Env) *LBPP {
	m := &LBPP{}
	m.init(env, m, true)
	m.lazy = true
	return m
}

// Name returns "lbpp".
func (m *LBPP) Name() string { return NameLBPP }

// Release closes the epoch (epoch persistency: the release is ordered by
// the barrier the workload already issued around it).
func (m *LBPP) Release(core int, line mem.Line, done sim.Cont) { m.Ofence(core, done) }

// nextFlushable: strictest discipline — only the oldest epoch flushes, and
// only once it is closed and its dependencies persisted.
func (m *LBPP) nextFlushable(c *fcore) *persist.PBEntry {
	oldest := c.et.OldestTS()
	ent, ok := c.et.Get(oldest)
	if !ok || !ent.Closed || !ent.DepsResolved() {
		return nil
	}
	return c.pb.NextWaitingIn(oldest)
}

// committed releases the epochs waiting on ent.
func (m *LBPP) committed(c *fcore, ent *persist.ETEntry) {
	m.notify(ent.Dependents)
}

var _ Model = (*LBPP)(nil)
