package model

import (
	"fmt"

	"asap/internal/obs"
	"asap/internal/persist"
)

// ASAP implements the paper's design as a policy of the epoch flusher:
// per-core persist buffers flush writes eagerly — possibly out of epoch
// order and before cross-thread dependencies resolve — marking flushes
// from not-yet-safe epochs as early. The memory controllers (persist.MC)
// speculatively update memory and keep undo/delay records per Table I.
// Epoch tables run the commit protocol of §V-C: commit messages to the
// controllers that saw early flushes, then CDR messages (the flusher's
// resolutions) to dependent threads. A NACK (full recovery table) drops
// the buffer into conservative flushing until the NACKed epoch commits
// (§V-D). Everything else — stores, fences, releases, the dependency
// rule and epoch splitting, pacing, ACKs — is the flusher's.
type ASAP struct {
	flusher

	// cons[c] is core c's conservative flushing mode after a NACK.
	cons []asapCons

	trc      obs.Tracer // nil unless tracing; every use must be nil-guarded
	pbTracks []obs.TrackID
}

// asapCons is one core's conservative flushing mode (§V-D): entered on a
// NACK, left when epoch ts, the oldest NACKed epoch, commits.
type asapCons struct {
	on bool
	ts uint64
}

func newASAP(env Env, rp bool) *ASAP {
	m := &ASAP{cons: make([]asapCons, env.Cfg.Cores)}
	m.init(env, m, true)
	m.rp = rp
	return m
}

// Name returns asap_ep or asap_rp.
func (m *ASAP) Name() string {
	if m.rp {
		return NameASAPRP
	}
	return NameASAPEP
}

// AttachTracer wires tr into the persist path: one "core<i> pb" track per
// core (sorted under the machine's core track) carries persist-buffer
// counters, early-flush/NACK instants, conservative-mode spans, and
// epoch-lifecycle events. Call before the simulation starts.
func (m *ASAP) AttachTracer(tr obs.Tracer) {
	m.trc = tr
	m.pbTracks = make([]obs.TrackID, len(m.cores))
	for i := range m.cores {
		m.pbTracks[i] = tr.Track(fmt.Sprintf("core%d pb", i), 2*i+1)
		m.cores[i].pb.AttachTracer(tr, m.pbTracks[i])
	}
}

// ETLen reports the core's live epoch-table entries (timeline sampling).
func (m *ASAP) ETLen(core int) int { return m.cores[core].et.Len() }

// traceEpoch records an epoch-lifecycle instant plus the table occupancy.
func (m *ASAP) traceEpoch(c *fcore, ev string) {
	if m.trc != nil {
		t := m.pbTracks[c.id]
		m.trc.Instant(t, ev)
		m.trc.Counter(t, "et", int64(c.et.Len()))
	}
}

// epochSafe reports whether epoch ts satisfies all ordering constraints:
// the preceding epoch committed and all cross dependencies resolved (§IV-B).
func (m *ASAP) epochSafe(c *fcore, ts uint64) bool {
	ent, ok := c.et.Get(ts)
	if !ok {
		return true // retired == committed == safe
	}
	return c.et.PrevCommitted(ts) && ent.DepsResolved()
}

// nextFlushable returns the oldest waiting entry the flush policy admits.
// With eager flushing the buffer blocks (PBBlocked) only in conservative
// (post-NACK) mode.
func (m *ASAP) nextFlushable(c *fcore) *persist.PBEntry {
	es := c.pb.Entries()
	for i := range es {
		if e := &es[i]; e.State == persist.PBWaiting && m.eligible(c, e) {
			return e
		}
	}
	return nil
}

// eligible implements the flush policy: eager mode issues anything not
// NACKed; NACKed entries (and everything in conservative mode, or always
// under the ASAPNoEager ablation) must wait for epoch safety and reissue as
// safe flushes.
func (m *ASAP) eligible(c *fcore, e *persist.PBEntry) bool {
	if m.env.Cfg.ASAPNoEager || m.cons[c.id].on || e.Nacked {
		return m.epochSafe(c, e.TS)
	}
	return true
}

// send issues the flush, marked early when its epoch is not yet safe; the
// epoch then owes a commit message to the flush's controller. A reissued
// NACKed flush clears the controller's NACK Bloom filter entry on arrival,
// releasing any delayed LLC eviction (§V-F); the Link applies that at
// delivery.
func (m *ASAP) send(c *fcore, e *persist.PBEntry) {
	early := !m.epochSafe(c, e.TS)
	retried := e.Nacked
	c.pb.MarkInflight(e, early)
	mcID := m.env.IL.Home(e.Line)
	if early {
		m.hc.totSpecWrites.Inc()
		if m.trc != nil {
			m.trc.Instant(m.pbTracks[c.id], "early flush")
		}
		if ent, ok := c.et.Get(e.TS); ok {
			ent.AddEarlyMC(mcID)
		}
	}
	pkt := persist.FlushPacket{
		Line:  e.Line,
		Token: e.Token,
		Epoch: persist.EpochID{Thread: c.id, TS: e.TS},
		Early: early,
	}
	m.env.Link.FlushOp(mcID, pkt, replyArg(c.id, e.ID), retried)
}

// FlushReply takes a NACK (a full recovery table) for the flush named by
// arg: the entry waits again, marked for a safe reissue, and the buffer
// turns conservative until the NACKed epoch commits. ACKs are the
// flusher's.
func (m *ASAP) FlushReply(arg uint64, res persist.FlushResult) {
	if res != persist.FlushNack {
		m.flusher.FlushReply(arg, res)
		return
	}
	core, id := unpackReplyArg(arg)
	c := &m.cores[core]
	e := c.pb.Nack(id)
	if e == nil {
		panic("asap: NACK for unknown persist buffer entry")
	}
	m.hc.pbNacks.Inc()
	if m.trc != nil {
		m.trc.Instant(m.pbTracks[c.id], "nack")
	}
	if ent, ok := c.et.Get(e.TS); ok {
		ent.Nacked = true
	}
	if cons := &m.cons[core]; !cons.on || e.TS < cons.ts {
		if !cons.on && m.trc != nil {
			// Entering conservative flushing (§V-D): span lasts until
			// the NACKed epoch commits.
			m.trc.Begin(m.pbTracks[c.id], "conservative")
		}
		*cons = asapCons{on: true, ts: e.TS}
	}
	m.kick(c)
}

// beginCommit sends commit messages to the controllers that saw early
// flushes of ent, which is safe and complete, in ascending controller
// order so the event sequence (and every downstream tie-break) is
// reproducible. Each rides the Link at MsgLat; the epoch commits on the
// last CommitAck, or at once when no flush of it was early.
func (m *ASAP) beginCommit(c *fcore, ent *persist.ETEntry) bool {
	ent.CommitSent = true
	if ent.EarlyMCs == 0 {
		return true
	}
	ent.CommitAcks = ent.EarlyMCCount()
	epoch := persist.EpochID{Thread: c.id, TS: ent.TS}
	for id, mask := 0, ent.EarlyMCs; mask != 0; id, mask = id+1, mask>>1 {
		if mask&1 != 0 {
			m.env.Link.CommitOp(id, epoch)
		}
	}
	return false
}

// CommitAck receives a controller's commit ACK for epoch e.
func (m *ASAP) CommitAck(e persist.EpochID) {
	c := &m.cores[e.Thread]
	ent, ok := c.et.Get(e.TS)
	if !ok {
		panic("asap: commit ACK for retired epoch")
	}
	ent.CommitAcks--
	if ent.CommitAcks == 0 {
		m.commit(c, ent)
	}
}

// committed leaves conservative mode once the NACKed epoch has committed,
// its recovery-table pressure gone (§V-D), and sends CDR messages to the
// dependent epochs.
func (m *ASAP) committed(c *fcore, ent *persist.ETEntry) {
	if cons := &m.cons[c.id]; cons.on && ent.TS >= cons.ts {
		cons.on = false
		if m.trc != nil {
			m.trc.End(m.pbTracks[c.id])
		}
	}
	m.notify(ent.Dependents)
}

var (
	_ Model       = (*ASAP)(nil)
	_ Traced      = (*ASAP)(nil)
	_ EpochTabled = (*ASAP)(nil)
)
