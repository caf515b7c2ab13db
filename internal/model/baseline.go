package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
)

// Baseline replicates current Intel machines (§VII): persistent stores are
// tracked as dirty lines; ordering and durability points (ofence, dfence,
// and the flush-before-unlock convention of lock-based PM code) issue clwb
// for every dirty line of the epoch and then stall the core on an sfence
// until the controllers acknowledge every flush. There are no persist
// buffers, so ordering stalls hit the core directly — the behaviour the
// paper's Figure 8 normalizes everything against.
type Baseline struct {
	env   Env
	hc    hotCounters
	cores []*baseCore
}

type baseCore struct {
	id int
	// dirty holds the dirty persistent lines of the current epoch with
	// their newest tokens, in first-write order for deterministic issue.
	dirty []dirtyLine

	ts          uint64 // current epoch timestamp
	committedTS uint64 // epochs <= this have had their fence complete

	outstanding int
	issueQ      []dirtyLine
	fence       stall // the sfence waiting for the clwbs' ACKs
}

// dirtyLine is one line of an epoch's write set and the token it holds.
type dirtyLine struct {
	line  mem.Line
	token mem.Token
}

func newBaseline(env Env) *Baseline {
	m := &Baseline{env: env, hc: newHotCounters(env.St)}
	m.cores = make([]*baseCore, env.Cfg.Cores)
	for i := range m.cores {
		m.cores[i] = &baseCore{id: i, ts: 1}
	}
	return m
}

// Name returns "baseline".
func (m *Baseline) Name() string { return NameBaseline }

// Stats returns the shared stat set.
func (m *Baseline) Stats() *stats.Set { return m.env.St }

// CurrentTS returns the core's epoch (fence-delimited).
func (m *Baseline) CurrentTS(core int) uint64 { return m.cores[core].ts }

// EpochCommitted: an epoch is durable once its closing fence completed.
func (m *Baseline) EpochCommitted(e persist.EpochID) bool {
	return m.cores[e.Thread].committedTS >= e.TS
}

// Store marks the line dirty; durability is deferred to the next fence.
func (m *Baseline) Store(core int, line mem.Line, token mem.Token, done sim.Cont) {
	c := m.cores[core]
	c.dirty = markDirty(c.dirty, line, token)
	m.env.Ledger.RecordWrite(persist.EpochID{Thread: core, TS: c.ts}, line, token)
	m.env.Eng.Resume(done)
}

// markDirty records token as line's newest value in the write set ws: in
// place if the line is already dirty, else appended. The set spans one
// epoch, a few lines between fences, so a scan beats hashing.
func markDirty(ws []dirtyLine, line mem.Line, token mem.Token) []dirtyLine {
	for i := range ws {
		if ws[i].line == line {
			ws[i].token = token
			return ws
		}
	}
	return append(ws, dirtyLine{line, token}) //asaplint:ignore alloccheck write set reaches the inter-fence footprint once, then reuses its backing array
}

// Ofence is clwb-per-dirty-line followed by sfence: the core stalls until
// every flush is acknowledged.
func (m *Baseline) Ofence(core int, done sim.Cont) { m.fence(core, done) }

// Dfence behaves identically: on this hardware the sfence already waits for
// ADR durability.
func (m *Baseline) Dfence(core int, done sim.Cont) { m.fence(core, done) }

// Release flushes and fences before the lock is actually released — the
// standard recipe for crash-consistent lock-based PM code on Intel hardware.
func (m *Baseline) Release(core int, line mem.Line, done sim.Cont) {
	m.fence(core, done)
}

// Acquire has no persistence cost on the baseline.
func (m *Baseline) Acquire(core int, line mem.Line) {}

// Conflict: the synchronous model needs no dependency tracking; ordering is
// already enforced at every fence.
func (m *Baseline) Conflict(core int, cf *cache.Conflict) {}

// StartDrain issues a final fence.
func (m *Baseline) StartDrain(core int, done sim.Cont) { m.fence(core, done) }

// PBOccupancy and PBBlocked: no persist buffer.
func (m *Baseline) PBOccupancy(core int) int { return 0 }
func (m *Baseline) PBBlocked(core int) bool  { return false }

func (m *Baseline) fence(core int, done sim.Cont) {
	c := m.cores[core]
	if !c.fence.done.IsZero() {
		panic("baseline: overlapping fences on one core")
	}
	if len(c.dirty) == 0 && c.outstanding == 0 {
		m.commitEpoch(c)
		m.env.Eng.Resume(done)
		return
	}
	m.hc.fences.Inc()
	c.fence = stall{done: done, began: m.env.Eng.Now()}
	c.issueQ = append(c.issueQ, c.dirty...) //asaplint:ignore alloccheck issue queue reaches steady-state capacity, then appends reuse it
	c.dirty = c.dirty[:0]
	m.issueFlushes(c)
}

// issueFlushes streams clwb operations, at most PBMaxInflight outstanding
// (the write-combining/MSHR limit of the flush path).
func (m *Baseline) issueFlushes(c *baseCore) {
	for len(c.issueQ) > 0 && c.outstanding < m.env.Cfg.PBMaxInflight {
		d := c.issueQ[0]
		c.issueQ = c.issueQ[1:]
		c.outstanding++
		m.hc.clwbIssued.Inc()
		pkt := persist.FlushPacket{
			Line:  d.line,
			Token: d.token,
			Epoch: persist.EpochID{Thread: c.id, TS: c.ts},
		}
		m.env.Link.FlushOp(m.env.IL.Home(d.line), pkt, uint64(c.id), false)
	}
}

// FlushReply receives a clwb's ACK for core arg.
func (m *Baseline) FlushReply(arg uint64, res persist.FlushResult) {
	if res != persist.FlushAck {
		panic("baseline: controller NACKed a flush")
	}
	c := m.cores[arg]
	c.outstanding--
	if len(c.issueQ) > 0 {
		m.issueFlushes(c)
		return
	}
	if w := c.fence; c.outstanding == 0 && !w.done.IsZero() {
		c.fence = stall{}
		m.hc.dfenceStalled.Add(uint64(m.env.Eng.Now() - w.began))
		m.commitEpoch(c)
		m.env.Eng.Resume(w.done)
	}
}

func (m *Baseline) commitEpoch(c *baseCore) {
	c.committedTS = c.ts
	m.env.Ledger.EpochCommitted(persist.EpochID{Thread: c.id, TS: c.ts})
	c.ts++
}

// RunEvent: the baseline schedules no events of its own.
func (m *Baseline) RunEvent(kind int, arg uint64) { panic("model: baseline schedules no events") }

var _ Model = (*Baseline)(nil)

// PBHasLine: the baseline has no persist buffer; pending lines live in the
// epoch write set and are flushed synchronously at fences.
func (m *Baseline) PBHasLine(core int, line mem.Line) bool { return false }
