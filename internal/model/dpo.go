package model

import (
	"asap/internal/cache"
	"asap/internal/persist"
)

// DPO implements Delegated Persist Ordering (Kolli et al., MICRO'16) as the
// paper characterizes it in §VII-E and Table IV: persist buffers alongside
// the private caches with *conservative* flushing — like HOPS — but
// cross-thread dependencies resolve through interconnect snooping
// (broadcast) rather than polling a global register, so resolution is fast
// but every commit costs a broadcast. DPO does not support multiple memory
// controllers; on this 2-MC machine it falls back to the same
// wait-for-all-ACKs cross-MC ordering as HOPS, which is exactly the
// configuration the paper predicts performs "comparable to HOPS and lesser
// than ASAP".
type DPO struct {
	flusher
	// waiters[src] lists dependent epochs to notify when src commits —
	// the snooped broadcast.
	waiters     map[persist.EpochID][]persist.EpochID
	committedTS []uint64
}

func newDPO(env Env) *DPO {
	m := &DPO{
		waiters:     make(map[persist.EpochID][]persist.EpochID),
		committedTS: make([]uint64, env.Cfg.Cores),
	}
	m.init(env, m, true)
	m.rp = true
	return m
}

// Name returns "dpo".
func (m *DPO) Name() string { return NameDPO }

// EpochCommitted reports whether epoch e has committed.
func (m *DPO) EpochCommitted(e persist.EpochID) bool {
	return m.committedTS[e.Thread] >= e.TS
}

// Conflict records a dependency under release persistency (DPO is evaluated
// with the RP policy here, its favourable configuration).
func (m *DPO) Conflict(core int, cf *cache.Conflict) {
	src, ok := m.depSource(cf)
	if !ok {
		return
	}
	cur := m.split(core, src)
	if !m.EpochCommitted(src) {
		cur.Deps = append(cur.Deps, src) //asaplint:ignore alloccheck conflict-only path; fan-out bounded by live epochs
		dst := persist.EpochID{Thread: core, TS: cur.TS}
		m.waiters[src] = append(m.waiters[src], dst) //asaplint:ignore alloccheck bookkeeping map bounded by workload footprint; outside the zero-alloc gate
		m.env.Ledger.DepCreated(src, dst)
	}
}

// nextFlushable mirrors HOPS: oldest epoch only, once its dependencies
// have resolved.
func (m *DPO) nextFlushable(c *fcore) *persist.PBEntry {
	oldest := c.et.OldestTS()
	if ent, ok := c.et.Get(oldest); ok && !ent.DepsResolved() {
		return nil // waiting for a snooped commit broadcast
	}
	return c.pb.NextWaitingIn(oldest)
}

// committed broadcasts e's commit: every dependent sees it after one
// interconnect hop. The broadcast itself is DPO's scaling cost.
func (m *DPO) committed(c *fcore, e persist.EpochID) {
	m.committedTS[c.id] = e.TS
	if len(m.waiters[e]) > 0 {
		m.hc.dpoBroadcasts.Inc()
	}
	m.notify(m.waiters, e)
}

var _ Model = (*DPO)(nil)
