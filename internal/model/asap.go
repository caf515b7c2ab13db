package model

import (
	"errors"
	"fmt"

	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/obs"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
)

// ASAP implements the paper's design: per-core persist buffers flush writes
// eagerly — possibly out of epoch order and before cross-thread dependencies
// resolve — marking flushes from not-yet-safe epochs as early. The memory
// controllers (persist.MC) speculatively update memory and keep undo/delay
// records per Table I. Epoch tables run the commit protocol of §V-C: commit
// messages to the controllers that saw early flushes, then CDR messages to
// dependent threads. A NACK (full recovery table) drops the buffer into
// conservative flushing until the NACKed epoch commits (§V-D).
// Typed-event kinds dispatched through ASAP.RunEvent, covering the
// per-write flusher hot path (kick and pace); the PB→MC sends and ET→MC
// commit messages travel through Env.Link instead.
const (
	asapEvKick = iota // flusher wake-up for core arg (clears flushScheduled)
	asapEvPace        // next paced flush issue for core arg
	asapEvCDR         // deliver a CDR; arg is the packed dependent EpochID
)

// ASAP issues every flush, commit broadcast and NACK retry through the
// Link, never as a direct MC call.
type ASAP struct {
	env Env
	hc  hotCounters
	rp  bool // release persistency (vs epoch persistency)

	cores []*asapCore

	trc      obs.Tracer // nil unless tracing; every use must be nil-guarded
	pbTracks []obs.TrackID
}

// packEpochArg squeezes an EpochID into a typed event's uint64 arg: thread
// in the low byte (config caps cores at 64), timestamp above. The guard
// trips long before a real run could reach 2^56 epochs.
func packEpochArg(e persist.EpochID) uint64 {
	if uint64(e.Thread) > 0xFF || e.TS >= 1<<56 {
		panic("asap: epoch id does not fit a packed event arg")
	}
	return e.TS<<8 | uint64(e.Thread)
}

func unpackEpochArg(arg uint64) persist.EpochID {
	return persist.EpochID{Thread: int(arg & 0xFF), TS: arg >> 8}
}

type asapCore struct {
	id int
	pb *persist.PersistBuffer
	et *persist.EpochTable

	// conservative flushing mode after a NACK; cleared when consTS commits.
	conservative bool
	consTS       uint64

	flushScheduled bool

	// stalled operations (see stall): a store on a full persist buffer, a
	// fence on a full epoch table, a dfence or drain waiting for commits.
	store  stall
	fence  stall
	dfence stall
}

func newASAP(env Env, rp bool) *ASAP {
	m := &ASAP{env: env, hc: newHotCounters(env.St), rp: rp}
	m.cores = make([]*asapCore, env.Cfg.Cores)
	for i := range m.cores {
		m.cores[i] = &asapCore{
			id: i,
			pb: persist.NewPersistBuffer(env.Cfg.PBEntries),
			et: persist.NewEpochTable(i, env.Cfg.ETEntries),
		}
	}
	return m
}

// RunEvent dispatches the model's typed events.
func (m *ASAP) RunEvent(kind int, arg uint64) {
	switch kind {
	case asapEvKick:
		c := m.cores[arg]
		c.flushScheduled = false
		m.flushOne(c)
	case asapEvPace:
		m.flushOne(m.cores[arg])
	case asapEvCDR:
		m.deliverCDR(unpackEpochArg(arg))
	default:
		panic("asap: unknown event kind")
	}
}

// CommitAck receives a controller's commit ACK for epoch e.
func (m *ASAP) CommitAck(e persist.EpochID) {
	c := m.cores[e.Thread]
	ent, ok := c.et.Get(e.TS)
	if !ok {
		panic("asap: commit ACK for retired epoch")
	}
	ent.CommitAcks--
	if ent.CommitAcks == 0 {
		m.finishCommit(c, ent)
	}
}

// FlushReply receives the controller's ACK/NACK for the persist buffer
// entry identified by arg (see replyArg).
func (m *ASAP) FlushReply(arg uint64, res persist.FlushResult) {
	core, id := unpackReplyArg(arg)
	m.onFlushReply(m.cores[core], id, res)
}

// Name returns asap_ep or asap_rp.
func (m *ASAP) Name() string {
	if m.rp {
		return NameASAPRP
	}
	return NameASAPEP
}

// Stats returns the shared stat set.
func (m *ASAP) Stats() *stats.Set { return m.env.St }

// Check verifies every core's persist buffer and epoch table;
// checkpoint.Load runs it on a decoded machine.
func (m *ASAP) Check() error {
	var errs []error
	for _, c := range m.cores {
		errs = append(errs, checkCore(c.id, c.pb, c.et))
	}
	return errors.Join(errs...)
}

// AttachTracer wires tr into the persist path: one "core<i> pb" track per
// core (sorted under the machine's core track) carries persist-buffer
// counters, early-flush/NACK instants, conservative-mode spans, and
// epoch-lifecycle events. Call before the simulation starts.
func (m *ASAP) AttachTracer(tr obs.Tracer) {
	m.trc = tr
	m.pbTracks = make([]obs.TrackID, len(m.cores))
	for i, c := range m.cores {
		m.pbTracks[i] = tr.Track(fmt.Sprintf("core%d pb", i), 2*i+1)
		c.pb.AttachTracer(tr, m.pbTracks[i])
	}
}

// ETLen reports the core's live epoch-table entries (timeline sampling).
func (m *ASAP) ETLen(core int) int { return m.cores[core].et.Len() }

// traceEpoch records an epoch-lifecycle instant plus the table occupancy.
func (m *ASAP) traceEpoch(c *asapCore, ev string) {
	if m.trc != nil {
		t := m.pbTracks[c.id]
		m.trc.Instant(t, ev)
		m.trc.Counter(t, "et", int64(c.et.Len()))
	}
}

// CurrentTS returns the open epoch of the core.
func (m *ASAP) CurrentTS(core int) uint64 { return m.cores[core].et.CurrentTS() }

// EpochCommitted reports durability of epoch e: retired entries are
// committed; live entries carry their state.
func (m *ASAP) EpochCommitted(e persist.EpochID) bool {
	c := m.cores[e.Thread]
	if ent, ok := c.et.Get(e.TS); ok {
		return ent.Committed
	}
	// Absent entries below the current TS were retired after committing.
	return e.TS < c.et.CurrentTS() || e.TS < c.et.OldestTS()
}

// epochSafe reports whether epoch ts satisfies all ordering constraints:
// the preceding epoch committed and all cross dependencies resolved (§IV-B).
func (m *ASAP) epochSafe(c *asapCore, ts uint64) bool {
	ent, ok := c.et.Get(ts)
	if !ok {
		return true // retired == committed == safe
	}
	return c.et.PrevCommitted(ts) && ent.DepsResolved()
}

// Store enqueues the write in the persist buffer, stalling the core when
// the buffer is full (cyclesStalled).
func (m *ASAP) Store(core int, line mem.Line, token mem.Token, done sim.Cont) {
	c := m.cores[core]
	m.tryEnqueue(c, line, token, done)
}

func (m *ASAP) tryEnqueue(c *asapCore, line mem.Line, token mem.Token, done sim.Cont) {
	ts := c.et.CurrentTS()
	coalesced, ok := c.pb.Enqueue(line, token, ts)
	if !ok {
		if !c.store.done.IsZero() {
			panic("asap: overlapping store stalls on one core")
		}
		c.store = stall{done: done, began: m.env.Eng.Now(), line: line, token: token}
		m.kickFlusher(c)
		return
	}
	m.hc.entriesInserted.Inc()
	if coalesced {
		m.hc.pbCoalesced.Inc()
	} else {
		c.et.Current().Unacked++
	}
	m.env.Ledger.RecordWrite(persist.EpochID{Thread: c.id, TS: ts}, line, token)
	m.kickFlusher(c)
	m.env.Eng.Resume(done)
}

// Ofence closes the current epoch (§V-A): increment the timestamp and add a
// new epoch table entry, stalling if the table is full.
func (m *ASAP) Ofence(core int, done sim.Cont) {
	c := m.cores[core]
	if c.et.Full() {
		c.fence = stall{done: done, began: m.env.Eng.Now()}
		return
	}
	closed := c.et.CurrentTS()
	c.et.Advance()
	m.traceEpoch(c, "epoch close")
	m.tryCommit(c, closed)
	m.env.Eng.Resume(done)
}

// Dfence waits until every in-flight epoch of the thread has committed.
func (m *ASAP) Dfence(core int, done sim.Cont) {
	c := m.cores[core]
	if c.et.Full() {
		c.fence = stall{done: done, began: m.env.Eng.Now(), dfence: true}
		return
	}
	closed := c.et.CurrentTS()
	c.et.Advance()
	m.traceEpoch(c, "epoch close")
	m.tryCommit(c, closed)
	if c.et.AllCommitted() {
		m.env.Eng.Resume(done)
		return
	}
	if !c.dfence.done.IsZero() {
		panic("asap: overlapping dfence waits on one core")
	}
	c.dfence = stall{done: done, began: m.env.Eng.Now()}
	m.kickFlusher(c)
}

// Release is a one-sided barrier: writes preceding it must persist before
// it, so the epoch containing those writes is closed. The machine tags the
// lock line with the closed epoch after performing the release store, so a
// later acquire can find the release epoch (§IV-A).
func (m *ASAP) Release(core int, line mem.Line, done sim.Cont) {
	c := m.cores[core]
	if m.rp && !c.et.Full() {
		relTS := c.et.CurrentTS()
		c.et.Advance()
		m.traceEpoch(c, "epoch close")
		m.tryCommit(c, relTS)
	}
	// Under epoch persistency a release is an ordinary store; the
	// workload's explicit ofences provide intra-thread ordering and the
	// coherence conflict on the lock line provides the cross-thread
	// dependency.
	m.env.Eng.Resume(done)
}

// Acquire needs no direct action: the dependency, if any, arrives through
// Conflict when the lock line is read.
func (m *ASAP) Acquire(core int, line mem.Line) {}

// Conflict applies the dependency policy. With release persistency only an
// acquire that synchronizes with a release creates a dependency; with epoch
// persistency any remote dirty-line transfer does (§IV-E).
func (m *ASAP) Conflict(core int, cf *cache.Conflict) {
	src, ok := m.depSource(cf)
	if !ok {
		return
	}
	m.addDependency(core, src)
}

// depSource extracts the source epoch of a potential dependency per the
// model's persistency policy, reporting ok=false when no dependency arises.
func (m *ASAP) depSource(cf *cache.Conflict) (persist.EpochID, bool) {
	if m.rp {
		if !cf.AcquireOnRelease {
			return persist.EpochID{}, false
		}
		src := persist.EpochID{Thread: cf.Writer, TS: cf.WriterTS}
		return src, !m.EpochCommitted(src)
	}
	if !cf.Remote {
		return persist.EpochID{}, false
	}
	// The owner replies with its *current* epoch number and splits
	// (deadlock avoidance borrowed from [14]).
	w := m.cores[cf.Writer]
	src := persist.EpochID{Thread: cf.Writer, TS: w.et.CurrentTS()}
	return src, true
}

// addDependency records that the requesting core's next writes depend on
// epoch src, splitting epochs on both sides per §IV-E.
func (m *ASAP) addDependency(core int, src persist.EpochID) {
	m.hc.interTEpochConflict.Inc()
	w := m.cores[src.Thread]
	// Source side: close the source epoch so it can commit. This split is
	// unconditional — leaving the source epoch open could deadlock two
	// mutually-dependent blocked cores (Lemma 0.1 requires it).
	if w.et.CurrentTS() == src.TS {
		w.et.Advance()
		m.traceEpoch(w, "epoch split")
		m.tryCommit(w, src.TS)
	}
	// Dependent side: open a new epoch carrying the dependency.
	c := m.cores[core]
	prev := c.et.CurrentTS()
	c.et.Advance()
	m.traceEpoch(c, "epoch split")
	m.tryCommit(c, prev)
	cur := c.et.Current()
	dst := persist.EpochID{Thread: core, TS: cur.TS}
	if ent, ok := w.et.Get(src.TS); ok && !ent.Committed {
		cur.Deps = append(cur.Deps, src)             //asaplint:ignore alloccheck conflict-only path; fan-out bounded by live epochs
		ent.Dependents = append(ent.Dependents, dst) //asaplint:ignore alloccheck conflict-only path; fan-out bounded by live epochs
		m.env.Ledger.DepCreated(src, dst)
	}
	// If the source epoch committed between the check and here, no
	// dependency is needed.
}

// StartDrain gives end-of-trace dfence semantics.
func (m *ASAP) StartDrain(core int, done sim.Cont) {
	m.Dfence(core, done)
}

// PBOccupancy and PBBlocked feed the sampler.
func (m *ASAP) PBOccupancy(core int) int { return m.cores[core].pb.Len() }

// PBBlocked reports a non-empty buffer with nothing eligible to flush —
// with eager flushing this happens only in conservative (post-NACK) mode.
func (m *ASAP) PBBlocked(core int) bool {
	c := m.cores[core]
	if c.pb.Empty() {
		return false
	}
	return m.nextFlushable(c) == nil && c.pb.Inflight() == 0
}

// nextFlushable returns the oldest waiting entry the flush policy admits.
func (m *ASAP) nextFlushable(c *asapCore) *persist.PBEntry {
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
func (m *ASAP) eligible(c *asapCore, e *persist.PBEntry) bool {
	if m.env.Cfg.ASAPNoEager || c.conservative || e.Nacked {
		return m.epochSafe(c, e.TS)
	}
	return true
}

func (m *ASAP) kickFlusher(c *asapCore) {
	if c.flushScheduled {
		return
	}
	c.flushScheduled = true
	m.env.Eng.AfterOp(1, m.env.op(), asapEvKick, uint64(c.id))
}

// flushOne issues at most one flush, then reschedules itself while work
// remains (one flush port per buffer, paced at flushIssuePace).
func (m *ASAP) flushOne(c *asapCore) {
	if c.pb.Inflight() >= m.env.Cfg.PBMaxInflight {
		return // an ACK will kick us again
	}
	e := m.nextFlushable(c)
	if e == nil {
		return
	}
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
	// retried clears the MC's NACK Bloom filter entry on arrival, releasing
	// any delayed LLC eviction (§V-F); the Link applies that at delivery.
	m.env.Link.FlushOp(mcID, pkt, replyArg(c.id, e.ID), retried)
	if c.pb.Inflight() < m.env.Cfg.PBMaxInflight {
		m.env.Eng.AfterOp(flushIssuePace, m.env.op(), asapEvPace, uint64(c.id))
	}
}

func (m *ASAP) onFlushReply(c *asapCore, id uint64, res persist.FlushResult) {
	if res == persist.FlushNack {
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
		if !c.conservative || e.TS < c.consTS {
			if !c.conservative && m.trc != nil {
				// Entering conservative flushing (§V-D): span lasts until
				// the NACKed epoch commits.
				m.trc.Begin(m.pbTracks[c.id], "conservative")
			}
			c.conservative = true
			c.consTS = e.TS
		}
		m.kickFlusher(c)
		return
	}
	e, ok := c.pb.Ack(id)
	if !ok {
		panic("asap: ACK for unknown persist buffer entry")
	}
	if ent, ok := c.et.Get(e.TS); ok {
		ent.Unacked--
		if ent.Unacked < 0 {
			panic("asap: negative unacked count")
		}
		m.tryCommit(c, e.TS)
	}
	// Freed buffer space: wake the stalled store.
	if w := c.store; !w.done.IsZero() {
		c.store = stall{}
		m.hc.cyclesStalled.Add(uint64(m.env.Eng.Now() - w.began))
		m.tryEnqueue(c, w.line, w.token, w.done)
	}
	m.kickFlusher(c)
}

// tryCommit runs the epoch commit state machine for epoch ts of core c:
// when safe and complete, send commit messages to the controllers that saw
// early flushes; once all acknowledge, the epoch is committed and CDR
// messages notify dependent threads (§V-C).
func (m *ASAP) tryCommit(c *asapCore, ts uint64) {
	ent, ok := c.et.Get(ts)
	if !ok || ent.Committed || ent.CommitSent {
		return
	}
	safe := c.et.PrevCommitted(ts) && ent.DepsResolved()
	complete := ent.Closed && ent.Unacked == 0
	if !safe || !complete {
		return
	}
	ent.CommitSent = true
	if ent.EarlyMCs == 0 {
		m.finishCommit(c, ent)
		return
	}
	ent.CommitAcks = ent.EarlyMCCount()
	epoch := persist.EpochID{Thread: c.id, TS: ts}
	// Commit messages are issued in ascending controller order so the
	// event sequence (and hence every downstream tie-break) is reproducible.
	// Each rides the Link at MsgLat; the ACK comes back through CommitAck.
	for id, mask := 0, ent.EarlyMCs; mask != 0; id, mask = id+1, mask>>1 {
		if mask&1 == 0 {
			continue
		}
		m.env.Link.CommitOp(id, epoch)
	}
}

func (m *ASAP) finishCommit(c *asapCore, ent *persist.ETEntry) {
	ent.Committed = true
	ts := ent.TS
	m.hc.epochsCommitted.Inc()
	m.env.Ledger.EpochCommitted(persist.EpochID{Thread: c.id, TS: ts})

	// Leaving conservative mode: the NACKed epoch has committed, so its
	// recovery-table pressure is gone (§V-D).
	if c.conservative && ts >= c.consTS {
		c.conservative = false
		if m.trc != nil {
			m.trc.End(m.pbTracks[c.id])
		}
	}

	// CDR messages to dependent threads, the dependent EpochID packed
	// into the event arg.
	for _, dep := range ent.Dependents {
		m.env.Eng.AfterOp(m.env.Cfg.MsgLat, m.env.op(), asapEvCDR, packEpochArg(dep))
	}

	c.et.Retire(ts)
	m.traceEpoch(c, "epoch commit")

	// Committing may unblock: the next epoch's commit, a stalled ofence
	// (table space freed), a dfence, and the flusher (epochs became safe).
	m.tryCommit(c, ts+1)
	if w := c.fence; !w.done.IsZero() && !c.et.Full() {
		c.fence = stall{}
		m.hc.ofenceStalled.Add(uint64(m.env.Eng.Now() - w.began))
		if w.dfence {
			m.Dfence(c.id, w.done)
		} else {
			m.Ofence(c.id, w.done)
		}
	}
	if w := c.dfence; !w.done.IsZero() && c.et.AllCommitted() {
		c.dfence = stall{}
		m.hc.dfenceStalled.Add(uint64(m.env.Eng.Now() - w.began))
		m.env.Eng.Resume(w.done)
	}
	m.kickFlusher(c)
}

// deliverCDR resolves one dependency at the dependent core.
func (m *ASAP) deliverCDR(dst persist.EpochID) {
	c := m.cores[dst.Thread]
	ent, ok := c.et.Get(dst.TS)
	if !ok {
		panic("asap: CDR for retired epoch")
	}
	ent.Resolved++
	m.tryCommit(c, dst.TS)
	m.kickFlusher(c)
}

var (
	_ Model       = (*ASAP)(nil)
	_ Traced      = (*ASAP)(nil)
	_ EpochTabled = (*ASAP)(nil)
)

// PBHasLine reports whether the core's persist buffer holds the line.
func (m *ASAP) PBHasLine(core int, line mem.Line) bool {
	return m.cores[core].pb.HasLine(line)
}
