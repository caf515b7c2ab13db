package model

import (
	"asap/internal/cache"
	"asap/internal/persist"
)

// HOPS implements the comparison design from Nalli et al. [6] as configured
// in the ASAP paper (§VII): per-core persist buffers with *conservative*
// flushing — only the oldest uncommitted epoch may flush, and an epoch with
// an unresolved cross-thread dependency blocks the buffer entirely. Cross
// dependencies resolve by polling a global timestamp register every
// HOPSPollInterval cycles at HOPSPollCost per access (the paper's updated,
// realistic polling parameters). All flushes are safe; the controllers need
// no recovery table.
type HOPS struct {
	flusher

	// globalTS[t] is the highest committed epoch timestamp of thread t —
	// HOPS's global TS register, the shared structure the paper calls a
	// scaling bottleneck.
	globalTS []uint64
	// polling[c] marks a poll in progress for core c.
	polling []bool
}

// HOPS's poll takes two events: the wait out to the next poll slot, then
// the register access.
const (
	hEvPollWait = fEvPolicy + iota // core arg's next poll slot arrives
	hEvPoll                        // core arg's poll result is visible
)

func newHOPS(env Env, rp bool) *HOPS {
	m := &HOPS{globalTS: make([]uint64, env.Cfg.Cores), polling: make([]bool, env.Cfg.Cores)}
	m.init(env, m, true)
	m.rp = rp
	return m
}

// Name returns hops_ep or hops_rp.
func (m *HOPS) Name() string {
	if m.rp {
		return NameHOPSRP
	}
	return NameHOPSEP
}

// EpochCommitted consults the global TS register.
func (m *HOPS) EpochCommitted(e persist.EpochID) bool {
	return m.globalTS[e.Thread] >= e.TS
}

// committed publishes the commit to the global TS register.
func (m *HOPS) committed(c *fcore, ent *persist.ETEntry) { m.globalTS[c.id] = ent.TS }

// Conflict applies the same dependency policy as ASAP but resolution will
// happen by polling rather than CDR messages.
func (m *HOPS) Conflict(core int, cf *cache.Conflict) {
	src, ok := m.depSource(cf)
	if !ok {
		return
	}
	cur := m.split(core, src)
	if !m.EpochCommitted(src) {
		cur.Deps = append(cur.Deps, src) //asaplint:ignore alloccheck conflict-only path; fan-out bounded by live epochs
		m.env.Ledger.DepCreated(src, persist.EpochID{Thread: core, TS: cur.TS})
		m.schedulePoll(m.cores[core])
	}
}

// nextFlushable returns the next waiting entry of the oldest uncommitted
// epoch, provided that epoch's dependencies are resolved. Conservative
// flushing: nothing younger may flush.
func (m *HOPS) nextFlushable(c *fcore) *persist.PBEntry {
	oldest := c.et.OldestTS()
	if ent, ok := c.et.Get(oldest); ok && !ent.DepsResolved() {
		m.schedulePoll(c)
		return nil
	}
	return c.pb.NextWaitingIn(oldest)
}

// schedulePoll arranges the next global-TS poll for core c. Each poll
// happens HOPSPollInterval cycles after the previous one and the register
// access itself costs HOPSPollCost before the result is visible.
func (m *HOPS) schedulePoll(c *fcore) {
	if m.polling[c.id] {
		return
	}
	m.polling[c.id] = true
	m.env.Eng.AfterOp(m.env.Cfg.HOPSPollInterval, m.env.op(), hEvPollWait, uint64(c.id))
}

// event runs the poll events.
func (m *HOPS) event(kind int, arg uint64) {
	switch kind {
	case hEvPollWait:
		m.env.Eng.AfterOp(m.env.Cfg.HOPSPollCost, m.env.op(), hEvPoll, arg)
	case hEvPoll:
		m.polling[arg] = false
		m.hc.hopsPolls.Inc()
		m.pollOnce(m.cores[arg])
	default:
		m.flusher.event(kind, arg)
	}
}

// pollOnce checks every unresolved dependency against the global TS
// register and re-arms the poll if any remain.
func (m *HOPS) pollOnce(c *fcore) {
	progress := false
	remaining := false
	for ts := c.et.OldestTS(); ts <= c.et.CurrentTS(); ts++ {
		ent, ok := c.et.Get(ts)
		for ok && ent.Resolved < len(ent.Deps) {
			src := ent.Deps[ent.Resolved]
			if m.globalTS[src.Thread] < src.TS {
				remaining = true
				break
			}
			ent.Resolved++
			progress = true
		}
	}
	if progress {
		for ts := c.et.OldestTS(); ts <= c.et.CurrentTS(); ts++ {
			m.tryCommit(c, ts)
		}
		m.kick(c)
	}
	if remaining {
		m.schedulePoll(c)
	}
}

var _ Model = (*HOPS)(nil)
