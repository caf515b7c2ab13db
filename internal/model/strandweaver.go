package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
)

// StrandModel is the optional extension for models that understand strand
// persistency: the machine forwards trace strand boundaries (OpStrand) to
// Strand. Models without it treat strands as ordinary program order, which
// is a conservative superset of the required ordering.
type StrandModel interface {
	Strand(core int)
}

// StrandWeaver implements strand persistency (Gogte et al., ISCA'20) as the
// paper characterizes it in §VII-E: a thread's execution divides into
// *strands*; persists in different strands have no ordering constraint, so
// their epochs flush concurrently — "it performs better than HOPS as it
// allows epochs from different strands to be flushed concurrently" — while
// within a strand flushing is conservative (epoch by epoch), and
// cross-strand/cross-thread dependencies from strong persist atomicity are
// also handled conservatively. The paper flags integrating ASAP with strand
// persistency as follow-on work; this model provides the StrandWeaver
// baseline for that comparison (experiment abl_strands).
type StrandWeaver struct {
	flusher
	sw []*swCore
}

// swCore is one core's strands; its persist buffer and stalls live in the
// flusher's fcore of the same index. Strands and their epochs are slabs of
// values: a *swStrand or *swEpoch (from open or epochByTS) is a borrow,
// valid until the next strand opens, epoch closes or commit pass runs.
type swCore struct {
	strands []swStrand
	cur     int // active strand index
	nextTS  uint64
}

type swStrand struct {
	epochs []swEpoch // FIFO: oldest first; last entry is open
}

type swEpoch struct {
	ts       uint64 // globally unique per core across strands
	unacked  int
	closed   bool
	deps     []persist.EpochID
	resolved int
	// waiters are the dependent epochs notified when this one retires.
	waiters []persist.EpochID
}

func (e *swEpoch) depsResolved() bool { return e.resolved >= len(e.deps) }

func newStrandWeaver(env Env) *StrandWeaver {
	m := &StrandWeaver{}
	m.init(env, m, false)
	m.sw = make([]*swCore, env.Cfg.Cores)
	for i := range m.sw {
		m.sw[i] = &swCore{strands: []swStrand{{epochs: []swEpoch{{ts: 1}}}}, nextTS: 2}
	}
	return m
}

// Name returns "strandweaver".
func (m *StrandWeaver) Name() string { return NameStrandWeaver }

// Strand opens a fresh strand; its epochs are unordered against the other
// strands of the thread.
func (m *StrandWeaver) Strand(core int) {
	s := m.sw[core]
	// Close the current strand's open epoch so it can commit.
	m.closeOpen(s, &s.strands[s.cur])
	//asaplint:ignore alloccheck strand bookkeeping growth, bounded by workload footprint; outside the zero-alloc gate
	s.strands = append(s.strands, swStrand{epochs: []swEpoch{{ts: s.nextTS}}})
	s.nextTS++
	s.cur = len(s.strands) - 1
	m.hc.swStrands.Inc()
	m.tryCommitAll(&m.cores[core])
}

func (s *swCore) open() *swEpoch {
	st := &s.strands[s.cur]
	return &st.epochs[len(st.epochs)-1]
}

// epochByTS finds a live epoch by timestamp.
func (s *swCore) epochByTS(ts uint64) (*swStrand, *swEpoch) {
	for i := range s.strands {
		st := &s.strands[i]
		for j := range st.epochs {
			if st.epochs[j].ts == ts {
				return st, &st.epochs[j]
			}
		}
	}
	return nil, nil
}

// CurrentTS returns the open epoch of the active strand.
func (m *StrandWeaver) CurrentTS(core int) uint64 { return m.sw[core].open().ts }

// EpochCommitted reports whether the epoch retired: its timestamp was
// handed out (below nextTS) and no strand holds it any more. Strand epochs
// of one thread are NOT totally ordered, so the crash checker's
// same-thread prefix assumption does not apply to this model (see
// DESIGN.md).
//
// An empty open epoch dropped with its drained strand also reads as
// retired, though it never committed. No query can tell: dependencies
// name release epochs, and a release closes its epoch first.
func (m *StrandWeaver) EpochCommitted(e persist.EpochID) bool {
	s := m.sw[e.Thread]
	if e.TS == 0 || e.TS >= s.nextTS {
		return false
	}
	_, ep := s.epochByTS(e.TS)
	return ep == nil
}

// openEpoch buffers writes in the active strand's open epoch; the count
// it returns is a borrow, written before any strand or epoch changes.
func (m *StrandWeaver) openEpoch(c *fcore) (uint64, *int) {
	e := m.sw[c.id].open()
	return e.ts, &e.unacked
}

// closeOpen closes the open epoch of strand st and opens its successor.
func (m *StrandWeaver) closeOpen(s *swCore, st *swStrand) {
	open := &st.epochs[len(st.epochs)-1]
	if open.closed {
		return
	}
	open.closed = true
	//asaplint:ignore alloccheck strand bookkeeping growth, bounded by workload footprint; outside the zero-alloc gate
	st.epochs = append(st.epochs, swEpoch{ts: s.nextTS})
	s.nextTS++
}

// Ofence is a strand-local persist barrier.
func (m *StrandWeaver) Ofence(core int, done sim.Cont) {
	s := m.sw[core]
	m.closeOpen(s, &s.strands[s.cur])
	m.tryCommitAll(&m.cores[core])
	m.env.Eng.Resume(done)
}

// Dfence waits until every strand has drained.
func (m *StrandWeaver) Dfence(core int, done sim.Cont) {
	s := m.sw[core]
	for i := range s.strands {
		m.closeOpen(s, &s.strands[i])
	}
	c := &m.cores[core]
	m.tryCommitAll(c)
	if s.drained() {
		m.env.Eng.Resume(done)
		return
	}
	m.waitDrain(c, done)
}

// drained: every strand holds only its single empty open epoch.
func (s *swCore) drained() bool {
	for i := range s.strands {
		for _, e := range s.strands[i].epochs {
			if e.closed || e.unacked > 0 {
				return false
			}
		}
	}
	return true
}

// Release closes the active strand's epoch (one-sided barrier).
func (m *StrandWeaver) Release(core int, line mem.Line, done sim.Cont) { m.Ofence(core, done) }

// Conflict: cross-thread (and hence cross-strand) dependencies are handled
// conservatively — the dependent epoch's strand blocks until the source
// epoch commits.
func (m *StrandWeaver) Conflict(core int, cf *cache.Conflict) {
	if !cf.AcquireOnRelease {
		return
	}
	src := persist.EpochID{Thread: cf.Writer, TS: cf.WriterTS}
	if m.EpochCommitted(src) {
		return
	}
	m.hc.interTEpochConflict.Inc()
	w := m.sw[src.Thread]
	if st, we := w.epochByTS(src.TS); we != nil && !we.closed {
		m.closeOpen(w, st)
		m.tryCommitAll(&m.cores[src.Thread])
	}
	s := m.sw[core]
	m.closeOpen(s, &s.strands[s.cur])
	dst := s.open()
	if _, se := w.epochByTS(src.TS); se != nil {
		//asaplint:ignore alloccheck strand bookkeeping growth, bounded by workload footprint; outside the zero-alloc gate
		dst.deps = append(dst.deps, src)
		id := persist.EpochID{Thread: core, TS: dst.ts}
		//asaplint:ignore alloccheck conflict-only path; fan-out bounded by live epochs
		se.waiters = append(se.waiters, id)
		m.env.Ledger.DepCreated(src, id)
	}
	m.tryCommitAll(&m.cores[core])
}

// nextFlushable: within each strand only the oldest epoch flushes
// (conservative), but all strands flush concurrently — the design's point.
func (m *StrandWeaver) nextFlushable(c *fcore) *persist.PBEntry {
	s := m.sw[c.id]
	es := c.pb.Entries()
	for i := range es {
		e := &es[i]
		if e.State != persist.PBWaiting {
			continue
		}
		for j := range s.strands {
			st := &s.strands[j]
			if len(st.epochs) > 0 && st.epochs[0].ts == e.TS && st.epochs[0].depsResolved() {
				return e
			}
		}
	}
	return nil
}

// acked accounts an ACKed write to its strand epoch.
func (m *StrandWeaver) acked(c *fcore, ts uint64) {
	if _, ep := m.sw[c.id].epochByTS(ts); ep != nil {
		ep.unacked--
	}
	m.tryCommitAll(c)
}

// tryCommitAll retires every strand-head epoch that is closed, drained and
// dependency-free, then notifies dependents.
func (m *StrandWeaver) tryCommitAll(c *fcore) {
	s := m.sw[c.id]
	progress := true
	for progress {
		progress = false
		for i := range s.strands {
			st := &s.strands[i]
			for len(st.epochs) > 0 {
				head := st.epochs[0]
				// Never retire the strand's open epoch.
				if !head.closed || head.unacked != 0 || !head.depsResolved() {
					break
				}
				// Pop by shifting, so the slab's backing array is reused
				// by the next closeOpen; the vacated slot is zeroed.
				n := copy(st.epochs, st.epochs[1:])
				st.epochs[n] = swEpoch{}
				st.epochs = st.epochs[:n]
				m.hc.epochsCommitted.Inc()
				m.env.Ledger.EpochCommitted(persist.EpochID{Thread: c.id, TS: head.ts})
				m.notify(head.waiters)
				progress = true
			}
		}
	}
	// Garbage-collect fully drained strands (everything committed, only
	// the empty open epoch left) other than the active one, so long runs
	// do not accumulate strand state.
	live, cur := 0, s.cur
	for i := range s.strands {
		st := &s.strands[i]
		if i == s.cur || len(st.epochs) != 1 || st.epochs[0].closed || st.epochs[0].unacked != 0 {
			if i == s.cur {
				cur = live // the active index in the compacted slab
			}
			s.strands[live] = *st
			live++
		}
	}
	if live != len(s.strands) {
		clear(s.strands[live:]) // the dropped tail must not alias live epochs
		s.strands = s.strands[:live]
		s.cur = cur
	}

	if !c.dfence.done.IsZero() && s.drained() {
		m.wakeDrain(c)
	}
	m.kick(c)
}

// resolve delivers a commit notification to the dependent epoch.
func (m *StrandWeaver) resolve(dst persist.EpochID) {
	if _, e := m.sw[dst.Thread].epochByTS(dst.TS); e != nil {
		e.resolved++
	}
	m.tryCommitAll(&m.cores[dst.Thread])
}

var _ Model = (*StrandWeaver)(nil)
var _ StrandModel = (*StrandWeaver)(nil)
