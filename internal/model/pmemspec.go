package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
)

// PMEMSpec implements PMEM-Spec (Jeong & Jung, ASPLOS'21) as the paper
// characterizes it in §VII-E and Table IV: every PM access flushes
// speculatively with no buffering and no ordering enforcement — the core
// never stalls for ordering — speculating that persists reach memory in
// program order. A mis-speculation (a younger epoch's write persisting
// while an older epoch still has writes in flight to a *different*
// controller, so the persist order could be observed inverted across
// controllers) is treated like a failure and repaired by software, which
// is expensive. On a single-controller system the channel is FIFO, nothing
// mis-speculates, and PMEM-Spec performs close to ASAP; with two
// controllers out-of-order persists are common and recovery dominates —
// exactly the paper's argument for why speculation needs ASAP's
// MC-side undo machinery instead.
type PMEMSpec struct {
	env   Env
	hc    hotCounters
	cores []*specCore
}

// specRecoveryCost is the software mis-speculation repair time. The paper
// calls it "very high overhead"; 5 µs (10k cycles) is a conservative
// estimate for a software handler that quiesces and repairs log state.
const specRecoveryCost sim.Cycles = 10_000

type specCore struct {
	id int
	ts uint64 // epoch counter (fence-delimited)

	// The un-ACKed flushes of the epochs in the window (committedTS, ts]:
	// pending[i] counts those of epoch committedTS+1+i, and
	// perMC[i*MCs+mc] those of them sent to controller mc. Retiring an
	// epoch shifts the window; an epoch past the end of pending has sent
	// nothing yet.
	pending []int
	perMC   []int

	committedTS  uint64
	recoverUntil sim.Cycles

	dfence stall // dfence waiting for every flush's ACK
}

func newPMEMSpec(env Env) *PMEMSpec {
	m := &PMEMSpec{env: env, hc: newHotCounters(env.St)}
	m.cores = make([]*specCore, env.Cfg.Cores)
	for i := range m.cores {
		m.cores[i] = &specCore{id: i, ts: 1}
	}
	return m
}

// Name returns "pmem_spec".
func (m *PMEMSpec) Name() string { return NamePMEMSpec }

// Stats returns the shared stat set.
func (m *PMEMSpec) Stats() *stats.Set { return m.env.St }

// CurrentTS returns the core's fence-delimited epoch.
func (m *PMEMSpec) CurrentTS(core int) uint64 { return m.cores[core].ts }

// EpochCommitted reports whether every flush of the epoch (and its
// predecessors) has been acknowledged. Note that unlike ASAP this is a
// best-effort property: mis-speculated persist orderings are repaired by
// software, not prevented, so the crash checker is not applicable to this
// model (see DESIGN.md).
func (m *PMEMSpec) EpochCommitted(e persist.EpochID) bool {
	return m.cores[e.Thread].committedTS >= e.TS
}

// delay defers done until any pending software recovery completes.
func (m *PMEMSpec) delay(c *specCore, done sim.Cont) {
	if now := m.env.Eng.Now(); now < c.recoverUntil {
		m.env.Eng.ScheduleCont(c.recoverUntil, done)
		return
	}
	m.env.Eng.Resume(done)
}

// Store flushes immediately — fire and forget. The core pays no ordering
// stall; mis-speculation is detected when an older epoch still has traffic
// in flight to a different controller.
func (m *PMEMSpec) Store(core int, line mem.Line, token mem.Token, done sim.Cont) {
	c := m.cores[core]
	ts := c.ts
	m.env.Ledger.RecordWrite(persist.EpochID{Thread: core, TS: ts}, line, token)
	m.hc.entriesInserted.Inc()

	mcID := m.env.IL.Home(line)
	mcs := m.env.Cfg.MCs
	i := int(ts - c.committedTS - 1)
	for len(c.pending) <= i {
		c.pending = append(c.pending, 0) //asaplint:ignore alloccheck window reaches the live epoch span once, then reuses its backing array
		for range mcs {
			c.perMC = append(c.perMC, 0) //asaplint:ignore alloccheck window reaches the live epoch span once, then reuses its backing array
		}
	}
	c.pending[i]++
	c.perMC[i*mcs+mcID]++

	// Mis-speculation check: an older epoch has un-ACKed flushes to a
	// different controller, so this younger write may persist first.
	for j := 0; j < i; j++ {
		for mc, n := range c.perMC[j*mcs : (j+1)*mcs] {
			if mc != mcID && n > 0 {
				m.hc.specMisspeculations.Inc()
				if m.env.Eng.Now()+specRecoveryCost > c.recoverUntil {
					c.recoverUntil = m.env.Eng.Now() + specRecoveryCost
				}
			}
		}
	}

	pkt := persist.FlushPacket{Line: line, Token: token, Epoch: persist.EpochID{Thread: core, TS: ts}}
	if core > 0xFF || mcID > 0xFF || ts >= 1<<48 {
		panic("pmem_spec: core, controller or epoch does not fit a packed reply arg")
	}
	m.env.Link.FlushOp(mcID, pkt, ts<<16|uint64(mcID)<<8|uint64(core), false)
	m.delay(c, done)
}

// FlushReply receives the ACK of a flush of epoch arg>>16 to controller
// arg>>8&0xFF from core arg&0xFF.
func (m *PMEMSpec) FlushReply(arg uint64, _ persist.FlushResult) {
	c := m.cores[arg&0xFF]
	i := int(arg>>16 - c.committedTS - 1)
	c.pending[i]--
	c.perMC[i*m.env.Cfg.MCs+int(arg>>8&0xFF)]--
	m.retire(c)
}

// retire advances committedTS over fully-acknowledged epochs.
func (m *PMEMSpec) retire(c *specCore) {
	for {
		next := c.committedTS + 1
		if next >= c.ts {
			break
		}
		if len(c.pending) > 0 {
			if c.pending[0] > 0 {
				break
			}
			// Shift the window: every count of a retired epoch is zero.
			mcs := m.env.Cfg.MCs
			c.pending = c.pending[:copy(c.pending, c.pending[1:])]
			c.perMC = c.perMC[:copy(c.perMC, c.perMC[mcs:])]
		}
		c.committedTS = next
		m.env.Ledger.EpochCommitted(persist.EpochID{Thread: c.id, TS: next})
	}
	if w := c.dfence; !w.done.IsZero() && c.drained() {
		c.dfence = stall{}
		m.hc.dfenceStalled.Add(uint64(m.env.Eng.Now() - w.began))
		m.delay(c, w.done)
	}
}

// drained reports whether every flush of the window has been ACKed.
func (c *specCore) drained() bool {
	for _, n := range c.pending {
		if n > 0 {
			return false
		}
	}
	return true
}

// Ofence only advances the epoch counter — no stall, that is the point.
func (m *PMEMSpec) Ofence(core int, done sim.Cont) {
	c := m.cores[core]
	c.ts++
	m.retireClosed(c)
	m.delay(c, done)
}

// retireClosed lets retire consider the epoch just closed by a fence.
func (m *PMEMSpec) retireClosed(c *specCore) { m.retire(c) }

// Dfence waits until every issued flush is acknowledged (durability).
func (m *PMEMSpec) Dfence(core int, done sim.Cont) {
	c := m.cores[core]
	c.ts++
	m.retire(c)
	if c.drained() {
		m.delay(c, done)
		return
	}
	if !c.dfence.done.IsZero() {
		panic("pmem_spec: overlapping dfence waits on one core")
	}
	c.dfence = stall{done: done, began: m.env.Eng.Now()}
}

// Release behaves like an ofence (flushes are already in flight).
func (m *PMEMSpec) Release(core int, line mem.Line, done sim.Cont) {
	m.Ofence(core, done)
}

// Acquire and Conflict: PMEM-Spec tracks no dependencies in hardware.
func (m *PMEMSpec) Acquire(core int, line mem.Line)       {}
func (m *PMEMSpec) Conflict(core int, cf *cache.Conflict) {}

// StartDrain gives end-of-trace dfence semantics.
func (m *PMEMSpec) StartDrain(core int, done sim.Cont) { m.Dfence(core, done) }

// PBOccupancy and PBBlocked: no persist buffer.
func (m *PMEMSpec) PBOccupancy(core int) int { return 0 }
func (m *PMEMSpec) PBBlocked(core int) bool  { return false }

// PBHasLine: no persist buffer.
func (m *PMEMSpec) PBHasLine(core int, line mem.Line) bool { return false }

// RunEvent: PMEM-Spec schedules no events of its own.
func (m *PMEMSpec) RunEvent(kind int, arg uint64) { panic("model: pmem_spec schedules no events") }

var _ Model = (*PMEMSpec)(nil)
