package persist

import (
	"asap/internal/config"
	"asap/internal/mem"
	"asap/internal/obs"
	"asap/internal/sim"
	"asap/internal/stats"
	"fmt"
)

// mcJob is one unit of controller work: an incoming flush or a commit
// message from an epoch table.
type mcJob struct {
	isCommit bool

	// flush fields: the result goes to the replier with replyArg passed
	// back verbatim.
	pkt      FlushPacket
	replyArg uint64

	// commit field: the epoch whose ACK goes to the acker.
	epoch EpochID
}

// CommitAcker receives the controller's commit ACK for an epoch submitted
// via CommitOp.
type CommitAcker interface {
	CommitAck(e EpochID)
}

// FlushReplier receives the controller's ACK/NACK for a flush submitted via
// ReceiveOp. arg is the caller's value from ReceiveOp: a packed core and
// persist-buffer entry ID, or whatever else names the flush to its sender.
type FlushReplier interface {
	FlushReply(arg uint64, res FlushResult)
}

// Typed-event kinds dispatched through MC.RunEvent.
const (
	mcEvServe     = iota // front-end picks up mc.cur after mcServeCost
	mcEvReply            // deliver the oldest queued reply (MsgLat later)
	mcEvXPRead           // XPBuffer read completes; arg carries the token
	mcEvMediaRead        // NVM media read completes for mc.cur's line
	mcEvDrain            // retire one WPQ entry to media
)

// Continuation codes for insertWrite: what runs once the write is accepted.
const (
	contAck        = iota // ACK the job in service
	contCommitNext        // continue the commit job's delay replay
)

// mcReply is one queued ACK/NACK/commit-ACK delivery. All replies travel
// at the same MsgLat delay, so a FIFO ring dispatched by typed events
// delivers them in the order they were sent.
type mcReply struct {
	commit   bool // a commit ACK for ackEpoch; else a flush reply
	ackEpoch EpochID
	arg      uint64
	res      FlushResult
}

// MC is a memory controller front-end. It owns a WPQ (in the ADR persistence
// domain), the NVM media behind it, an XPBuffer line cache, and — when the
// machine runs an ASAP model — a recovery table plus the NACK Bloom filter.
//
// The controller serves one job at a time (reads for undo-record creation
// serialize with inserts), while an independent drain process retires WPQ
// entries to NVM at the media write latency. A full WPQ back-pressures the
// front-end: the job being served waits for a drain before inserting, and
// jobs behind it queue up.
//
// All steady-state work is scheduled through the engine's typed-event form
// with the controller itself as receiver, and the job/reply queues are
// head-indexed rings, so serving traffic does not allocate.
type MC struct {
	ID  int
	eng *sim.Engine
	cfg config.Config

	// rp and acker receive every reply: the machine's model, wired once
	// by Connect at construction (acker is nil for a model that never
	// commits epochs at the controllers).
	rp    FlushReplier
	acker CommitAcker

	WPQ   *mem.WPQ
	RT    *RecoveryTable // nil for models without speculative persistence
	XP    *mem.XPBuffer
	NVM   *mem.NVM
	Bloom *CountingBloom

	queue   []mcJob // pending jobs; qhead indexes the oldest
	qhead   int
	serving bool
	cur     mcJob // job in service (valid while serving)

	replies []mcReply // in-flight MsgLat replies; rhead indexes the oldest
	rhead   int

	// commit replay progress (valid while serving a commit job): a copy
	// of the committed epoch's first nDelays delay records, in a buffer of
	// table capacity reused by every commit.
	delays            []DelayRecord
	nDelays, delayIdx int

	// wpq-full retry state. The controller is single-served, so at most one
	// insert can be waiting for drain space at a time.
	wpqWait     bool
	wpqWaitLine mem.Line
	wpqWaitTok  mem.Token
	wpqWaitCont int

	draining bool

	st *stats.Set
	hc mcCounters

	trc   obs.Tracer // nil unless tracing; every use must be nil-guarded
	track obs.TrackID
}

// mcServeCost is the fixed front-end cost of handling one job (CAM lookup
// plus control), in cycles. Table V reports ~0.4 ns RT access; 4 cycles
// (2 ns) also covers the scheduling overheads.
const mcServeCost sim.Cycles = 4

// NewMC builds a controller. Pass speculative=true to attach a recovery
// table and Bloom filter (ASAP); false gives the plain ADR controller used
// by the baseline, HOPS and eADR models.
func NewMC(id int, eng *sim.Engine, cfg config.Config, speculative bool, st *stats.Set) *MC {
	mc := &MC{
		ID:  id,
		eng: eng,
		cfg: cfg,
		WPQ: mem.NewWPQ(cfg.WPQEntries),
		XP:  mem.NewXPBuffer(cfg.XPBufLines),
		NVM: mem.NewNVM(0),
		st:  st,
		hc:  newMCCounters(st),
	}
	if speculative {
		mc.RT = NewRecoveryTable(cfg.RTEntries)
		mc.delays = make([]DelayRecord, cfg.RTEntries)
		mc.Bloom = NewCountingBloom(1024, 3)
	}
	mc.Reset(0)
	return mc
}

// Register adds the controller to its engine's receiver table. Controllers
// register first on their engine, in ID order, and the link right after
// them (Link.Register), so a controller's handle is its ID and the link's
// the controller count: neither stores one, and a checkpoint image holds
// no handle to validate. The model and the machine register after them.
func (mc *MC) Register() {
	if mc.eng.RegisterOp(mc) != mc.op() {
		panic(fmt.Sprintf("persist: controller %d registered out of ID order", mc.ID))
	}
}

// op is the controller's receiver handle: its ID (see Register).
func (mc *MC) op() sim.Op { return sim.Op(mc.ID) }

// Reset returns the controller to its state after NewMC, crash-flushed or
// mid-run as it may be: no job queued, in service or waiting for the WPQ,
// no reply in flight, empty WPQ, XPBuffer, NVM, recovery table and Bloom
// filter, no tracer and no replier (Connect wires the next one), the NVM
// sized for the pmLines lines the next run writes here. It keeps its
// engine and stat set; the job and reply queues go back to nil.
func (mc *MC) Reset(pmLines int) {
	mc.WPQ.Reset()
	mc.XP.Reset()
	mc.NVM.Reset(pmLines)
	if mc.RT != nil {
		mc.RT.Reset()
		mc.Bloom.Reset()
	}
	clear(mc.delays)
	*mc = MC{
		ID: mc.ID, eng: mc.eng, cfg: mc.cfg,
		WPQ: mc.WPQ, RT: mc.RT, XP: mc.XP, NVM: mc.NVM, Bloom: mc.Bloom,
		delays: mc.delays, st: mc.st, hc: mc.hc,
	}
}

// Connect names the component every reply of this controller goes to:
// flush ACK/NACKs to rp.FlushReply and, when rp is also a CommitAcker,
// commit ACKs to its CommitAck. A machine connects its model once, at
// construction.
func (mc *MC) Connect(rp FlushReplier) {
	mc.rp = rp
	mc.acker, _ = rp.(CommitAcker)
}

// Stats returns the stat set the controller reports into.
func (mc *MC) Stats() *stats.Set { return mc.st }

// AttachTracer wires tr through the controller and its sub-structures: one
// "mc<ID>" track carries job-service spans, flush decision instants, and
// the WPQ/RT/XPBuffer/NVM counters. Call before the simulation starts.
func (mc *MC) AttachTracer(tr obs.Tracer) {
	mc.trc = tr
	mc.track = tr.Track(fmt.Sprintf("mc%d", mc.ID), 100+mc.ID)
	mc.WPQ.AttachTracer(tr, mc.track)
	mc.XP.AttachTracer(tr, mc.track)
	mc.NVM.AttachTracer(tr, mc.track)
	if mc.RT != nil {
		mc.RT.AttachTracer(tr, mc.track)
	}
}

// ReceiveOp accepts a flush packet; the ACK or NACK is delivered through
// the connected replier's FlushReply(arg, res) after the on-chip message
// latency. Callers model the PB→MC flush latency before calling ReceiveOp.
func (mc *MC) ReceiveOp(pkt FlushPacket, arg uint64) {
	mc.enqueueFlush(mcJob{pkt: pkt, replyArg: arg})
}

func (mc *MC) enqueueFlush(j mcJob) {
	if j.pkt.Early {
		mc.hc.earlyFlushes.Inc()
	} else {
		mc.hc.safeFlushes.Inc()
	}
	mc.queue = append(mc.queue, j) //asaplint:ignore alloccheck job queue reaches steady-state capacity, then appends reuse it
	mc.serve()
}

// CommitOp accepts an epoch-commit message from an epoch table; the ACK
// goes to the connected CommitAck(e) once the table has been cleaned and
// any delay records processed (§V-C).
func (mc *MC) CommitOp(e EpochID) {
	mc.queue = append(mc.queue, mcJob{isCommit: true, epoch: e}) //asaplint:ignore alloccheck job queue reaches steady-state capacity, then appends reuse it
	mc.serve()
}

// QueueLen reports front-end jobs waiting to be served (for tests).
func (mc *MC) QueueLen() int { return len(mc.queue) - mc.qhead }

// Idle reports whether the controller has no queued work, no job in
// service, and an empty WPQ.
func (mc *MC) Idle() bool {
	return !mc.serving && mc.QueueLen() == 0 && mc.WPQ.Len() == 0
}

func (mc *MC) serve() {
	if mc.serving || mc.qhead == len(mc.queue) {
		return
	}
	mc.serving = true
	mc.cur = mc.queue[mc.qhead]
	mc.queue[mc.qhead] = mcJob{} // consumed slots hold no stale bytes
	mc.qhead++
	if mc.qhead == len(mc.queue) {
		mc.queue = mc.queue[:0]
		mc.qhead = 0
	}
	mc.eng.AfterOp(mcServeCost, mc.op(), mcEvServe, 0)
}

// RunEvent dispatches the controller's typed events.
//
//asap:hot the memory controller's entire service loop runs in here
func (mc *MC) RunEvent(kind int, arg uint64) {
	switch kind {
	case mcEvServe:
		if mc.trc != nil {
			mc.trc.Begin(mc.track, jobName(mc.cur))
		}
		if mc.cur.isCommit {
			mc.processCommit()
		} else {
			mc.processFlush()
		}
	case mcEvReply:
		r := mc.replies[mc.rhead]
		mc.replies[mc.rhead] = mcReply{}
		mc.rhead++
		if mc.rhead == len(mc.replies) {
			mc.replies = mc.replies[:0]
			mc.rhead = 0
		}
		if r.commit {
			mc.acker.CommitAck(r.ackEpoch)
		} else {
			mc.rp.FlushReply(r.arg, r.res)
		}
	case mcEvXPRead:
		mc.readDone(mem.Token(arg))
	case mcEvMediaRead:
		l := mc.cur.pkt.Line
		t := mc.NVM.Read(l)
		mc.XP.Insert(l, t)
		mc.readDone(t)
	case mcEvDrain:
		mc.drainOne()
	default:
		panic("persist: unknown MC event kind")
	}
}

// finishJob ends the service span of mc.cur and picks up the next job.
func (mc *MC) finishJob() {
	if mc.trc != nil {
		mc.trc.End(mc.track)
	}
	mc.serving = false
	mc.cur = mcJob{}
	mc.serve()
}

// sendReply queues r for delivery MsgLat cycles from now.
func (mc *MC) sendReply(r mcReply) {
	mc.replies = append(mc.replies, r) //asaplint:ignore alloccheck reply ring: head compaction keeps it at steady-state capacity
	mc.eng.AfterOp(mc.cfg.MsgLat, mc.op(), mcEvReply, 0)
}

// ack ACKs the flush in service and moves on.
func (mc *MC) ack() {
	j := &mc.cur
	mc.sendReply(mcReply{arg: j.replyArg, res: FlushAck})
	mc.finishJob()
}

// nack NACKs the flush in service and moves on.
func (mc *MC) nack() {
	j := &mc.cur
	mc.hc.nacks.Inc()
	if mc.trc != nil {
		mc.trc.Instant(mc.track, "nack")
	}
	if mc.Bloom != nil {
		mc.Bloom.Add(j.pkt.Line)
	}
	mc.sendReply(mcReply{arg: j.replyArg, res: FlushNack})
	mc.finishJob()
}

// debugFlush prints one flush's recovery-table and media state; test
// diagnostics behind the DebugLine gate.
func (mc *MC) debugFlush(pkt FlushPacket) {
	u, hu := mc.RT.Undo(pkt.Line)
	fmt.Printf("[%d] MC%d flush tok=%d epoch=%v early=%v hasUndo=%v undo=%+v mem=%d\n",
		mc.eng.Now(), mc.ID, pkt.Token, pkt.Epoch, pkt.Early, hu, u, mc.NVM.Peek(pkt.Line))
}

// debugCommitDelays prints the delay records a commit replays; test
// diagnostics behind the DebugLine gate.
func (mc *MC) debugCommitDelays() {
	for _, d := range mc.delays[:mc.nDelays] {
		if d.Line == DebugLine {
			fmt.Printf("[%d] MC%d commit %v replays delay tok=%d mem=%d\n", mc.eng.Now(), mc.ID, mc.cur.epoch, d.Token, mc.NVM.Peek(d.Line))
		}
	}
}

// jobName labels a controller job's service span in the trace.
func jobName(j mcJob) string {
	switch {
	case j.isCommit:
		return "commit"
	case j.pkt.Early:
		return "early flush"
	default:
		return "safe flush"
	}
}

// processFlush applies Table I to the flush in service.
func (mc *MC) processFlush() {
	pkt := mc.cur.pkt
	if DebugLine != 0 && pkt.Line == DebugLine && mc.RT != nil {
		mc.debugFlush(pkt) //asaplint:ignore alloccheck test-only diagnostics behind the DebugLine gate, never on a measured run
	}

	if mc.RT == nil {
		// Plain ADR controller: every flush is a memory write.
		mc.insertWrite(pkt.Line, pkt.Token, contAck)
		return
	}

	// If this epoch already has a delayed write for the line, the incoming
	// flush — early or safe — must coalesce into the delay record: the
	// record is replayed at the epoch's commit, so it must carry the
	// epoch's newest value for the line. Letting the flush take any other
	// path would leave a stale delayed value to clobber memory at commit
	// (same-line writes of one thread arrive in program order, so the
	// incoming value is always the newer one).
	if mc.RT.HasDelay(pkt.Line, pkt.Epoch) {
		mc.RT.CreateDelay(pkt.Line, pkt.Token, pkt.Epoch)
		mc.hc.delayCoalesced.Inc()
		mc.ack()
		return
	}

	undo, hasUndo := mc.RT.Undo(pkt.Line)
	switch {
	case !pkt.Early && !hasUndo:
		// Safe flush, no record: the normal path.
		mc.insertWrite(pkt.Line, pkt.Token, contAck)

	case !pkt.Early && hasUndo && undo.Creator == pkt.Epoch:
		// Safe flush finding an undo record its *own epoch* created:
		// the speculative value in memory is an older write of this
		// epoch (a same-line predecessor that issued early before the
		// epoch turned safe), so the incoming value is the newest for
		// the line and goes straight to memory. The undo record keeps
		// the pre-epoch safe state for rollback. Without this case the
		// newer write would be stashed in the undo record and deleted
		// at commit.
		mc.insertWrite(pkt.Line, pkt.Token, contAck)

	case !pkt.Early && hasUndo:
		// Safe flush, record from another epoch: memory already holds
		// a newer speculative value (the undo creator wrote after this
		// flush in coherence order, or this is a NACK-retried older
		// write). The incoming value becomes the recorded safe state;
		// the memory write is suppressed.
		mc.RT.UpdateUndo(pkt.Line, pkt.Token)
		mc.hc.writesSuppressed.Inc()
		mc.ack()

	case pkt.Early && hasUndo:
		// Early flush, record present: delay it until its epoch commits.
		if mc.RT.CreateDelay(pkt.Line, pkt.Token, pkt.Epoch) {
			mc.ack()
		} else {
			mc.nack()
		}

	default: // early, no undo record
		if mc.RT.Full() {
			mc.nack()
			return
		}
		// Create the undo record by reading the current value, then
		// speculatively update memory (§V-A). The read hits the WPQ or
		// the XPBuffer most of the time; otherwise it pays the NVM read
		// latency — the source of ASAP's ~5% PM read increase (§VII-A).
		mc.readCurrent(pkt.Line)
	}
}

// readDone resumes the early-no-undo flush path once the line's current
// durable value is known.
func (mc *MC) readDone(old mem.Token) {
	pkt := mc.cur.pkt
	if !mc.RT.CreateUndo(pkt.Line, old, pkt.Epoch) {
		// A racing job cannot exist (single-served), but a
		// commit between scheduling and execution cannot
		// either; guard anyway.
		mc.nack()
		return
	}
	mc.hc.totalUndo.Inc()
	mc.insertWrite(pkt.Line, pkt.Token, contAck)
}

// processCommit deletes the epoch's undo records and replays its delay
// records as freshly arrived flushes (§V-B rules 1 and 2).
func (mc *MC) processCommit() {
	mc.nDelays = mc.RT.Commit(mc.cur.epoch, mc.delays)
	mc.delayIdx = 0
	if DebugLine != 0 {
		mc.debugCommitDelays() //asaplint:ignore alloccheck test-only diagnostics behind the DebugLine gate, never on a measured run
	}
	mc.hc.commits.Inc()
	mc.commitNext()
}

// commitNext replays delay records one WPQ insert at a time; suppressed
// replays (line has a newer undo record) are absorbed in place.
func (mc *MC) commitNext() {
	for {
		if mc.delayIdx >= mc.nDelays {
			clear(mc.delays[:mc.nDelays])
			mc.nDelays, mc.delayIdx = 0, 0
			mc.sendReply(mcReply{commit: true, ackEpoch: mc.cur.epoch})
			mc.finishJob()
			return
		}
		d := &mc.delays[mc.delayIdx]
		mc.delayIdx++
		if _, hasUndo := mc.RT.Undo(d.Line); hasUndo {
			mc.RT.UpdateUndo(d.Line, d.Token)
			mc.hc.writesSuppressed.Inc()
			continue
		}
		mc.insertWrite(d.Line, d.Token, contCommitNext)
		return
	}
}

// runCont resumes the job in service after an accepted WPQ insert.
func (mc *MC) runCont(cont int) {
	switch cont {
	case contAck:
		mc.ack()
	case contCommitNext:
		mc.commitNext()
	default:
		panic("persist: unknown MC insert continuation")
	}
}

// readCurrent obtains the newest durable value of the serving flush's line:
// a pending WPQ write wins, then the XPBuffer, then the NVM media. The
// result arrives at readDone.
func (mc *MC) readCurrent(l mem.Line) {
	if t, ok := mc.WPQ.Contains(l); ok {
		mc.readDone(t)
		return
	}
	if t, ok := mc.XP.Lookup(l); ok {
		mc.eng.AfterOp(mc.cfg.XPBufHit, mc.op(), mcEvXPRead, uint64(t))
		return
	}
	mc.hc.undoMediaReads.Inc()
	if mc.trc != nil {
		mc.trc.Instant(mc.track, "undo media read")
	}
	// The controller pipelines media reads: the front-end is occupied for
	// the read-throughput interval, not the full access latency.
	gap := mc.cfg.NVMReadGap
	if gap == 0 {
		gap = mc.cfg.NVMRead
	}
	mc.eng.AfterOp(gap, mc.op(), mcEvMediaRead, 0)
}

// insertWrite places a write in the WPQ, waiting for drain space if full,
// then resumes via cont. The write is durable (ADR domain) once inserted.
func (mc *MC) insertWrite(l mem.Line, t mem.Token, cont int) {
	if mc.WPQ.Insert(l, t) {
		mc.pumpDrain()
		mc.runCont(cont)
		return
	}
	mc.hc.wpqFullStalls.Inc()
	if mc.trc != nil {
		mc.trc.Instant(mc.track, "wpq full")
	}
	if mc.wpqWait {
		panic("persist: overlapping WPQ waits on a single-served controller")
	}
	mc.wpqWait = true
	mc.wpqWaitLine = l
	mc.wpqWaitTok = t
	mc.wpqWaitCont = cont
}

// pumpDrain retires one WPQ entry to NVM every media drain interval (the
// media's write throughput; the 90 ns NVMWrite figure is access latency,
// which the ADR ACK point hides from the critical path).
func (mc *MC) pumpDrain() {
	if mc.draining || mc.WPQ.Len() == 0 {
		return
	}
	gap := mc.cfg.NVMDrainGap
	if gap == 0 {
		gap = mc.cfg.NVMWrite
	}
	mc.draining = true
	mc.eng.AfterOp(gap, mc.op(), mcEvDrain, 0)
}

// drainOne is the mcEvDrain handler: retire one entry, wake a stalled
// insert, and re-arm.
func (mc *MC) drainOne() {
	mc.draining = false
	if mc.WPQ.Len() > 0 {
		l, t := mc.WPQ.Pop()
		mc.NVM.Write(l, t)
		mc.XP.Insert(l, t)
	}
	if mc.wpqWait {
		mc.wpqWait = false
		mc.insertWrite(mc.wpqWaitLine, mc.wpqWaitTok, mc.wpqWaitCont)
	}
	mc.pumpDrain()
}

// CrashFlush performs the ADR power-fail sequence (§V-E): drain the WPQ to
// media, then write every undo record's safe value, unwinding speculative
// updates. Delay records are discarded. The recovery table is left empty,
// as after a restart.
func (mc *MC) CrashFlush() {
	mc.WPQ.Drain(mc.NVM)
	if mc.RT != nil {
		for _, u := range mc.RT.UndoRecords() {
			mc.NVM.Write(u.Line, u.Safe)
		}
		mc.RT.Clear()
	}
}

// DebugLine, when non-zero, makes controllers print every event touching
// that line (test diagnostics only).
var DebugLine mem.Line

// DebugLineFrom converts a raw line number for test diagnostics.
func DebugLineFrom(l uint64) mem.Line { return mem.Line(l) }
