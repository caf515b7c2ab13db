package model

import (
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
// than ASAP". Dependencies follow the flusher's default Conflict rule
// (DPO is evaluated with the RP policy here, its favourable configuration).
type DPO struct {
	flusher
}

func newDPO(env Env) *DPO {
	m := &DPO{}
	m.init(env, m, true)
	m.rp = true
	return m
}

// Name returns "dpo".
func (m *DPO) Name() string { return NameDPO }

// nextFlushable mirrors HOPS: oldest epoch only, once its dependencies
// have resolved.
func (m *DPO) nextFlushable(c *fcore) *persist.PBEntry {
	oldest := c.et.OldestTS()
	if ent, ok := c.et.Get(oldest); ok && !ent.DepsResolved() {
		return nil // waiting for a snooped commit broadcast
	}
	return c.pb.NextWaitingIn(oldest)
}

// committed broadcasts ent's commit: every dependent sees it after one
// interconnect hop — the snooped broadcast, which is DPO's scaling cost.
func (m *DPO) committed(c *fcore, ent *persist.ETEntry) {
	if len(ent.Dependents) > 0 {
		m.hc.dpoBroadcasts.Inc()
	}
	m.notify(ent.Dependents)
}

var _ Model = (*DPO)(nil)
