package model

import (
	"errors"
	"fmt"

	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
)

// The epoch flusher: the persist path every buffered design shares (§V-A–C
// of the paper). Each core's persist buffer drains one flush per
// flushIssuePace cycles through the Link while PBMaxInflight allows; ACKs
// retire entries, account them to their epoch, and run the commit rule;
// a store that finds the buffer full, a fence that finds the epoch table
// full, and a dfence waiting for the drain park as stall values and resume
// when the structure frees up. The designs compared against ASAP differ
// only in *which* entry may flush next and *when* an epoch commits, so
// each one embeds a flusher and supplies that policy.
//
// The policy is the embedding model itself (flusher.pol), reached through
// flushPolicy. The flusher's own methods are the defaults: a model that
// does not define, say, resolve or send gets the flusher's through
// embedding, and one that does overrides it for the flusher's calls too.
// The flusher also provides the Model methods the epoch-table designs
// share (Store, Ofence, Dfence, Release, StartDrain, the sampler probes)
// and the model's RunEvent, so the model stays the machine's single
// typed-event receiver with the core in the event arg.

// Typed-event kinds dispatched through flusher.RunEvent. Kinds from
// fEvPolicy up belong to the policy (flushPolicy.event).
const (
	fEvKick    = iota // flusher wake-up for core arg (clears flushScheduled)
	fEvPace           // next paced flush issue for core arg
	fEvResolve        // a dependency resolution reaches the dependent; arg is the packed EpochID
	fEvPolicy
)

// flushPolicy is what a design supplies to its flusher. The Model methods
// let the flusher route through the model's own entry points (LRP gates
// its fences, so StartDrain must reach LRP's Dfence).
type flushPolicy interface {
	Model
	persist.FlushReplier

	// nextFlushable picks the persist-buffer entry core c may flush next,
	// or nil when the policy forbids every waiting entry.
	nextFlushable(c *fcore) *persist.PBEntry
	// committed runs once epoch ent of core c has committed, before the
	// epoch table retires (and may recycle) ent: the design's durability
	// bookkeeping and the notification of ent.Dependents.
	committed(c *fcore, ent *persist.ETEntry)

	// Defaults provided by the flusher.
	openEpoch(c *fcore) (ts uint64, unacked *int)
	acked(c *fcore, ts uint64)
	resolve(dst persist.EpochID)
	send(c *fcore, e *persist.PBEntry)
	kicked()
	event(kind int, arg uint64)
}

// stall is one operation parked until a full structure frees up: the
// continuation to resume, the cycle it parked at (for the stall-cycle
// stats), and what to retry. A zero stall (done.IsZero) is an empty slot.
type stall struct {
	done   sim.Cont
	began  sim.Cycles
	line   mem.Line  // a stalled store's line
	token  mem.Token // and the token it writes
	dfence bool      // a stalled fence retries as a dfence
}

// fcore is one core's persist buffer, epoch table and stalled operations.
type fcore struct {
	id int
	pb *persist.PersistBuffer
	et *persist.EpochTable // nil for designs without one (StrandWeaver)

	flushScheduled bool

	// A core is serial: it waits on each store and fence, so at most one
	// store (PB full), one fence (ET full) and one drain can be parked.
	store  stall
	fence  stall
	dfence stall
}

// flusher is the shared persist-path engine; see the file comment.
type flusher struct {
	env   Env
	hc    hotCounters
	pol   flushPolicy
	cores []*fcore

	// rp selects the release-persistency dependency policy (an acquire of
	// a released line) over epoch persistency's (any remote dirty
	// transfer); under rp a release closes the epoch.
	rp bool
	// lazy flushes only closed epochs (LB++): the flusher wakes when an
	// epoch closes rather than when a write enters the buffer.
	lazy bool
	// quietCommit leaves the flusher asleep after a commit (Vorpal, whose
	// commits follow persists at the controllers, not core-side order).
	quietCommit bool
	// tagBytes is charged to vorpalTagBytes per buffered write.
	tagBytes uint64
}

// init wires the flusher into its embedding model pol. withET gives every
// core an epoch table.
func (f *flusher) init(env Env, pol flushPolicy, withET bool) {
	f.env, f.hc, f.pol = env, newHotCounters(env.St), pol
	f.cores = make([]*fcore, env.Cfg.Cores)
	for i := range f.cores {
		c := &fcore{id: i, pb: persist.NewPersistBuffer(env.Cfg.PBEntries)}
		if withET {
			c.et = persist.NewEpochTable(i, env.Cfg.ETEntries)
		}
		f.cores[i] = c
	}
}

// RunEvent dispatches the flusher's typed events and the policy's.
func (f *flusher) RunEvent(kind int, arg uint64) {
	switch kind {
	case fEvKick:
		c := f.cores[arg]
		c.flushScheduled = false
		f.flushOne(c)
	case fEvPace:
		f.flushOne(f.cores[arg])
	case fEvResolve:
		f.pol.resolve(unpackEpochArg(arg))
	default:
		f.pol.event(kind, arg)
	}
}

// event is the default for policies without events of their own.
func (f *flusher) event(kind int, arg uint64) {
	panic(f.pol.Name() + ": unknown event kind")
}

// kick schedules a flusher wake-up for core c unless one is pending.
func (f *flusher) kick(c *fcore) {
	if c.flushScheduled {
		return
	}
	c.flushScheduled = true
	f.pol.kicked()
	f.env.Eng.AfterOp(1, f.env.op(), fEvKick, uint64(c.id))
}

// kicked is the default wake-up hook: nothing to do.
func (f *flusher) kicked() {}

// flushOne issues at most one flush, then reschedules itself while the
// inflight limit allows (one flush port per buffer, paced at
// flushIssuePace).
func (f *flusher) flushOne(c *fcore) {
	if c.pb.Inflight() >= f.env.Cfg.PBMaxInflight {
		return // an ACK will kick us again
	}
	e := f.pol.nextFlushable(c)
	if e == nil {
		return
	}
	c.pb.MarkInflight(e, false)
	f.pol.send(c, e)
	if c.pb.Inflight() < f.env.Cfg.PBMaxInflight {
		f.env.Eng.AfterOp(flushIssuePace, f.env.op(), fEvPace, uint64(c.id))
	}
}

// send is the default flush issue: a safe flush over the Link, answered
// through FlushReply.
func (f *flusher) send(c *fcore, e *persist.PBEntry) {
	pkt := persist.FlushPacket{Line: e.Line, Token: e.Token, Epoch: persist.EpochID{Thread: c.id, TS: e.TS}}
	f.env.Link.FlushOp(f.env.IL.Home(e.Line), pkt, replyArg(c.id, e.ID), false)
}

// replyArg packs a flush's core and persist-buffer entry ID into the
// reply arg: core in the low byte (config.Check caps cores at 64), ID
// above. unpackReplyArg inverts it.
func replyArg(core int, id uint64) uint64 {
	if core < 0 || core > 0xFF || id >= 1<<56 {
		panic("model: core or persist buffer entry id does not fit a packed reply arg")
	}
	return id<<8 | uint64(core)
}

func unpackReplyArg(arg uint64) (core int, id uint64) { return int(arg & 0xFF), arg >> 8 }

// FlushReply receives the controller's answer for a flush sent with
// replyArg: it retires the acknowledged entry, runs the commit rule,
// resumes a store stalled on the full buffer, and wakes the flusher.
func (f *flusher) FlushReply(arg uint64, res persist.FlushResult) {
	core, id := unpackReplyArg(arg)
	c := f.cores[core]
	if res != persist.FlushAck {
		panic(f.pol.Name() + ": controller NACKed a safe flush")
	}
	e, ok := c.pb.Ack(id)
	if !ok {
		panic(f.pol.Name() + ": ACK for unknown persist buffer entry")
	}
	f.pol.acked(c, e.TS)
	if w := c.store; !w.done.IsZero() {
		c.store = stall{}
		f.hc.cyclesStalled.Add(uint64(f.env.Eng.Now() - w.began))
		f.store(c, w.line, w.token, w.done)
	}
	f.kick(c)
}

// acked is the default epoch accounting for an ACKed write of epoch ts.
func (f *flusher) acked(c *fcore, ts uint64) {
	if ent, ok := c.et.Get(ts); ok {
		ent.Unacked--
		f.tryCommit(c, ts)
	}
}

// openEpoch is the default write target: the epoch table's open epoch.
// The count it returns is a borrow into the table's ring, written before
// the next Advance.
func (f *flusher) openEpoch(c *fcore) (uint64, *int) {
	return c.et.CurrentTS(), &c.et.Current().Unacked
}

// Store enters a write into the persist buffer, stalling the core while
// the buffer is full.
func (f *flusher) Store(core int, line mem.Line, token mem.Token, done sim.Cont) {
	f.store(f.cores[core], line, token, done)
}

func (f *flusher) store(c *fcore, line mem.Line, token mem.Token, done sim.Cont) {
	ts, unacked := f.pol.openEpoch(c)
	coalesced, ok := c.pb.Enqueue(line, token, ts)
	if !ok {
		if !c.store.done.IsZero() {
			panic(f.pol.Name() + ": overlapping store stalls on one core")
		}
		c.store = stall{done: done, began: f.env.Eng.Now(), line: line, token: token}
		f.kick(c)
		return
	}
	f.hc.entriesInserted.Inc()
	if f.tagBytes != 0 {
		f.hc.vorpalTagBytes.Add(f.tagBytes)
	}
	if coalesced {
		f.hc.pbCoalesced.Inc()
	} else {
		*unacked++
	}
	f.env.Ledger.RecordWrite(persist.EpochID{Thread: c.id, TS: ts}, line, token)
	if !f.lazy {
		f.kick(c)
	}
	f.env.Eng.Resume(done)
}

// advance closes core c's open epoch and runs the commit rule on it.
func (f *flusher) advance(c *fcore) {
	ts := c.et.CurrentTS()
	c.et.Advance()
	f.tryCommit(c, ts)
}

// close is advance plus, for lazy policies, the wake-up that lets the
// closed epoch flush.
func (f *flusher) close(c *fcore) {
	f.advance(c)
	if f.lazy {
		f.kick(c)
	}
}

// Ofence closes the epoch, stalling while the epoch table is full.
func (f *flusher) Ofence(core int, done sim.Cont) {
	c := f.cores[core]
	if c.et.Full() {
		c.fence = stall{done: done, began: f.env.Eng.Now()}
		return
	}
	f.close(c)
	f.env.Eng.Resume(done)
}

// Dfence closes the epoch and waits until every epoch has committed.
func (f *flusher) Dfence(core int, done sim.Cont) {
	c := f.cores[core]
	if c.et.Full() {
		c.fence = stall{done: done, began: f.env.Eng.Now(), dfence: true}
		return
	}
	f.close(c)
	if c.et.AllCommitted() {
		f.env.Eng.Resume(done)
		return
	}
	f.waitDrain(c, done)
}

// waitDrain parks a dfence until the core's persist path drains.
func (f *flusher) waitDrain(c *fcore, done sim.Cont) {
	if !c.dfence.done.IsZero() {
		panic(f.pol.Name() + ": overlapping dfence waits on one core")
	}
	c.dfence = stall{done: done, began: f.env.Eng.Now()}
	f.kick(c)
}

// wakeDrain resumes the parked dfence.
func (f *flusher) wakeDrain(c *fcore) {
	w := c.dfence
	c.dfence = stall{}
	f.hc.dfenceStalled.Add(uint64(f.env.Eng.Now() - w.began))
	f.env.Eng.Resume(w.done)
}

// Release closes the epoch under release persistency; the machine tags
// the lock line with the closed epoch.
func (f *flusher) Release(core int, line mem.Line, done sim.Cont) {
	c := f.cores[core]
	if f.rp && !c.et.Full() {
		f.close(c)
	}
	f.env.Eng.Resume(done)
}

// Acquire needs no direct action; Conflict carries any dependency.
func (f *flusher) Acquire(core int, line mem.Line) {}

// StartDrain gives end-of-trace dfence semantics.
func (f *flusher) StartDrain(core int, done sim.Cont) { f.pol.Dfence(core, done) }

// tryCommit commits epoch ts of core c once it is closed, fully ACKed,
// free of unresolved dependencies and its predecessor committed; then it
// retires the epoch, runs the policy's committed hook, tries the next
// epoch, and resumes a fence or drain the commit unblocked.
func (f *flusher) tryCommit(c *fcore, ts uint64) {
	ent, ok := c.et.Get(ts)
	if !ok || ent.Committed {
		return
	}
	if !ent.Closed || ent.Unacked != 0 || !ent.DepsResolved() || !c.et.PrevCommitted(ts) {
		return
	}
	ent.Committed = true
	f.hc.epochsCommitted.Inc()
	f.env.Ledger.EpochCommitted(persist.EpochID{Thread: c.id, TS: ts})
	f.pol.committed(c, ent)
	c.et.Retire(ts)
	f.tryCommit(c, ts+1)
	if w := c.fence; !w.done.IsZero() && !c.et.Full() {
		c.fence = stall{}
		f.hc.ofenceStalled.Add(uint64(f.env.Eng.Now() - w.began))
		if w.dfence {
			f.Dfence(c.id, w.done)
		} else {
			f.Ofence(c.id, w.done)
		}
	}
	if !c.dfence.done.IsZero() && c.et.AllCommitted() {
		f.wakeDrain(c)
	}
	if !f.quietCommit {
		f.kick(c)
	}
}

// resolve is the default dependency resolution: the dependent epoch dst
// counts one more resolved source and may commit.
func (f *flusher) resolve(dst persist.EpochID) {
	c := f.cores[dst.Thread]
	if ent, ok := c.et.Get(dst.TS); ok {
		ent.Resolved++
		f.tryCommit(c, dst.TS)
	}
	f.kick(c)
}

// notify schedules a resolution, one MsgLat from now, for every dependent
// epoch in dsts, in order.
func (f *flusher) notify(dsts []persist.EpochID) {
	for _, dst := range dsts {
		f.env.Eng.AfterOp(f.env.Cfg.MsgLat, f.env.op(), fEvResolve, packEpochArg(dst))
	}
}

// Conflict is the default dependency rule (DPO, LB++): split the epochs
// as split does and, unless the source epoch committed meanwhile, make the
// new epoch wait on it. The edge is kept on both entries, as ASAP keeps
// it: Deps on the dependent, Dependents on the source, which notify
// reads when the source commits.
func (f *flusher) Conflict(core int, cf *cache.Conflict) {
	src, ok := f.depSource(cf)
	if !ok {
		return
	}
	cur := f.split(core, src)
	if f.pol.EpochCommitted(src) {
		return
	}
	dst := persist.EpochID{Thread: core, TS: cur.TS}
	ent := f.sourceEntry(src)
	cur.Deps = append(cur.Deps, src)             //asaplint:ignore alloccheck conflict-only path; fan-out bounded by live epochs
	ent.Dependents = append(ent.Dependents, dst) //asaplint:ignore alloccheck conflict-only path; fan-out bounded by live epochs
	f.env.Ledger.DepCreated(src, dst)
}

// sourceEntry returns the epoch-table entry of an uncommitted dependency
// source. Epochs commit and retire in timestamp order, and a source is
// never younger than its thread's open epoch, so the entry is tracked.
func (f *flusher) sourceEntry(src persist.EpochID) *persist.ETEntry {
	ent, ok := f.cores[src.Thread].et.Get(src.TS)
	if !ok {
		panic(f.pol.Name() + ": dependency on an untracked epoch")
	}
	return ent
}

// depSource extracts the source epoch of a potential dependency under the
// flusher's persistency policy (see ASAP.depSource).
func (f *flusher) depSource(cf *cache.Conflict) (persist.EpochID, bool) {
	if f.rp {
		if !cf.AcquireOnRelease {
			return persist.EpochID{}, false
		}
		src := persist.EpochID{Thread: cf.Writer, TS: cf.WriterTS}
		return src, !f.pol.EpochCommitted(src)
	}
	if !cf.Remote {
		return persist.EpochID{}, false
	}
	return persist.EpochID{Thread: cf.Writer, TS: f.cores[cf.Writer].et.CurrentTS()}, true
}

// split applies the epoch-splitting rule to a new dependency on src (see
// ASAP.addDependency): the source epoch closes so it can commit, and the
// dependent core opens a fresh epoch to carry the dependency, which split
// returns.
func (f *flusher) split(core int, src persist.EpochID) *persist.ETEntry {
	f.hc.interTEpochConflict.Inc()
	if w := f.cores[src.Thread]; w.et.CurrentTS() == src.TS {
		f.close(w)
	}
	c := f.cores[core]
	f.advance(c)
	return c.et.Current()
}

// Stats returns the shared stat set.
func (f *flusher) Stats() *stats.Set { return f.env.St }

// Check verifies every core's persist buffer and epoch table;
// checkpoint.Load runs it on a decoded machine.
func (f *flusher) Check() error {
	var errs []error
	for _, c := range f.cores {
		errs = append(errs, checkCore(c.id, c.pb, c.et))
	}
	return errors.Join(errs...)
}

// checkCore runs the Check of one core's persist buffer and (if it has
// one) epoch table, naming the core in a failure.
func checkCore(core int, pb *persist.PersistBuffer, et *persist.EpochTable) error {
	err := pb.Check()
	if et != nil {
		err = errors.Join(err, et.Check())
	}
	if err != nil {
		return fmt.Errorf("core %d: %w", core, err)
	}
	return nil
}

// CurrentTS returns the open epoch of the core.
func (f *flusher) CurrentTS(core int) uint64 { return f.cores[core].et.CurrentTS() }

// PBOccupancy feeds the sampler (Figure 11).
func (f *flusher) PBOccupancy(core int) int { return f.cores[core].pb.Len() }

// PBBlocked reports a buffer holding writes of which the policy lets none
// flush, with none in flight (Figure 3).
func (f *flusher) PBBlocked(core int) bool {
	c := f.cores[core]
	if c.pb.Empty() {
		return false
	}
	return f.pol.nextFlushable(c) == nil && c.pb.Inflight() == 0
}

// PBHasLine reports whether the core's persist buffer holds the line.
func (f *flusher) PBHasLine(core int, line mem.Line) bool {
	return f.cores[core].pb.HasLine(line)
}
