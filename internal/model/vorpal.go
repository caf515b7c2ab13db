package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
)

// Vorpal implements the vector-clock design of Korgaonkar et al. (PODC'19)
// as the paper characterizes it in §III and §VII-E: one of the few schemes
// that addresses multi-controller ordering, but by *delaying writes at the
// memory controller* until vector clocks prove them safe, with the
// controllers broadcasting their clocks periodically — "the broadcast
// frequency determines the rate of forward progress". Persist buffers issue
// eagerly (no core-side ordering stalls), every flush carries a vector
// timestamp (tag cost accounted in stats), and each controller parks the
// flush until its last-broadcast view shows all of the thread's earlier
// epochs persisted everywhere.
type Vorpal struct {
	flusher

	// persisted[t][mc] = highest epoch of thread t fully persisted at mc.
	persisted [][]uint64
	// visible[t] = min over controllers of persisted as of the last
	// broadcast — the view each controller orders against.
	visible []uint64
	// pending flushes parked at each controller.
	pending [][]vorpalFlush
	// deps[t] lists the cross-thread epochs that thread t's uncommitted
	// epochs must wait for, in dependent-TS order — the information real
	// Vorpal encodes in the vector timestamps. Each conflict opens a new
	// epoch, so records arrive in TS order; commit trims them.
	deps [][]vorpalDep

	// arrivals holds the flushes travelling to their controllers, oldest
	// at ahead; every one takes FlushLat, so they arrive in FIFO order.
	arrivals []vorpalFlush
	ahead    int

	broadcastOn bool
}

// vorpalDep is one dependency edge: epoch ts of the owning thread waits
// for src.
type vorpalDep struct {
	ts  uint64
	src persist.EpochID
}

type vorpalFlush struct {
	mc     int
	line   mem.Line
	token  mem.Token
	epoch  persist.EpochID
	pbID   uint64
	parked sim.Cycles
}

// Vorpal's own typed events.
const (
	vEvArrive = fEvPolicy + iota // the oldest travelling flush reaches its controller
	vEvTick                      // inter-controller clock broadcast
)

// vorpalBroadcastInterval is the inter-controller clock broadcast period;
// the paper notes it bounds forward progress.
const vorpalBroadcastInterval sim.Cycles = 500

func newVorpal(env Env) *Vorpal {
	m := &Vorpal{
		persisted: make([][]uint64, env.Cfg.Cores),
		visible:   make([]uint64, env.Cfg.Cores),
		pending:   make([][]vorpalFlush, env.Cfg.MCs),
		deps:      make([][]vorpalDep, env.Cfg.Cores),
	}
	for i := range m.persisted {
		m.persisted[i] = make([]uint64, env.Cfg.MCs)
	}
	m.init(env, m, true)
	m.rp = true
	m.quietCommit = true
	m.tagBytes = uint64(env.Cfg.Cores * 2) // vector timestamp per store
	return m
}

// Name returns "vorpal".
func (m *Vorpal) Name() string { return NameVorpal }

// EpochCommitted: committed when persisted at every controller.
func (m *Vorpal) EpochCommitted(e persist.EpochID) bool {
	for _, p := range m.persisted[e.Thread] {
		if p < e.TS {
			return false
		}
	}
	// Persisted counters only advance when the epoch table retires the
	// epoch, which requires all earlier epochs too; see committed.
	return true
}

// committed marks ent persisted at every controller and drops the
// dependency records of ent and the epochs before it: their writes have
// all persisted, so no flush of theirs is left to order.
func (m *Vorpal) committed(c *fcore, ent *persist.ETEntry) {
	for mcID := range m.persisted[c.id] {
		m.persisted[c.id][mcID] = ent.TS
	}
	d := m.deps[c.id]
	k := 0
	for k < len(d) && d[k].ts <= ent.TS {
		k++
	}
	if k > 0 {
		m.deps[c.id] = d[:copy(d, d[k:])]
	}
}

// Conflict: in Vorpal cross-thread ordering flows through the vector
// clocks at the controllers; an acquire still splits the source epoch so
// its clock advances.
func (m *Vorpal) Conflict(core int, cf *cache.Conflict) {
	src, ok := m.depSource(cf)
	if !ok {
		return
	}
	// The dependent epoch's writes will park at the controllers until
	// the broadcast shows the source persisted; record the edge for the
	// crash checker.
	cur := m.split(core, src)
	m.deps[core] = append(m.deps[core], vorpalDep{ts: cur.TS, src: src}) //asaplint:ignore alloccheck conflict-only path; records trimmed at commit, bounded by live epochs
	m.env.Ledger.DepCreated(src, persist.EpochID{Thread: core, TS: cur.TS})
}

// PBBlocked: issue is eager, so the buffer never blocks core-side.
func (m *Vorpal) PBBlocked(core int) bool { return false }

// nextFlushable issues eagerly in FIFO order; the controller does the
// delaying.
func (m *Vorpal) nextFlushable(c *fcore) *persist.PBEntry { return c.pb.NextWaiting() }

// kicked starts the periodic inter-controller clock exchange.
func (m *Vorpal) kicked() {
	if m.broadcastOn {
		return
	}
	m.broadcastOn = true
	m.env.Eng.AfterOp(vorpalBroadcastInterval, m.env.op(), vEvTick, 0)
}

// send puts the flush on its way to the controller, which parks or
// persists it on arrival.
func (m *Vorpal) send(c *fcore, e *persist.PBEntry) {
	m.arrivals = append(m.arrivals, vorpalFlush{ //asaplint:ignore alloccheck arrival ring reaches steady-state capacity, then appends reuse it
		mc: m.env.IL.Home(e.Line), line: e.Line, token: e.Token,
		epoch: persist.EpochID{Thread: c.id, TS: e.TS}, pbID: e.ID,
	})
	m.env.Eng.AfterOp(m.env.Cfg.FlushLat, m.env.op(), vEvArrive, 0)
}

// event runs arrivals and broadcast ticks.
func (m *Vorpal) event(kind int, arg uint64) {
	switch kind {
	case vEvArrive:
		fl := m.arrivals[m.ahead]
		m.arrivals[m.ahead] = vorpalFlush{}
		m.ahead++
		if m.ahead == len(m.arrivals) {
			m.arrivals = m.arrivals[:0]
			m.ahead = 0
		}
		if m.safeToPersist(fl.epoch) {
			m.persistNow(fl)
			return
		}
		fl.parked = m.env.Eng.Now()
		m.pending[fl.mc] = append(m.pending[fl.mc], fl) //asaplint:ignore alloccheck parked-flush queue reaches steady-state capacity, then appends reuse it
		m.hc.vorpalParked.Inc()
	case vEvTick:
		m.tick()
	default:
		m.flusher.event(kind, arg)
	}
}

// safeToPersist: all earlier epochs of the thread — and every recorded
// cross-thread dependency — are visible as persisted everywhere (per the
// last clock broadcast).
func (m *Vorpal) safeToPersist(e persist.EpochID) bool {
	if m.visible[e.Thread] < e.TS-1 {
		return false
	}
	for _, d := range m.deps[e.Thread] {
		if d.ts > e.TS {
			break
		}
		if d.ts == e.TS && m.visible[d.src.Thread] < d.src.TS {
			return false
		}
	}
	return true
}

// persistNow hands the flush to its controller; the ACK reaches the
// flusher like any other.
func (m *Vorpal) persistNow(fl vorpalFlush) {
	pkt := persist.FlushPacket{Line: fl.line, Token: fl.token, Epoch: fl.epoch}
	m.env.MCs[fl.mc].ReceiveOp(pkt, replyArg(fl.epoch.Thread, fl.pbID))
}

// tick is one clock broadcast: refresh every thread's globally visible
// clock, release the parked flushes that became safe, and re-arm while
// work remains.
func (m *Vorpal) tick() {
	m.hc.vorpalBroadcasts.Inc()
	for t := range m.visible {
		min := ^uint64(0)
		for _, p := range m.persisted[t] {
			if p < min {
				min = p
			}
		}
		m.visible[t] = min
	}
	for mcID, pend := range m.pending {
		rest := pend[:0]
		for _, fl := range pend {
			if m.safeToPersist(fl.epoch) {
				m.hc.vorpalParkCycles.Add(uint64(m.env.Eng.Now() - fl.parked))
				m.persistNow(fl)
			} else {
				rest = append(rest, fl) //asaplint:ignore alloccheck in-place filter into the queue's own backing array never grows it
			}
		}
		clear(pend[len(rest):])
		m.pending[mcID] = rest
	}
	if m.busy() {
		m.env.Eng.AfterOp(vorpalBroadcastInterval, m.env.op(), vEvTick, 0)
	} else {
		// Nothing in flight: stop ticking so the engine can drain; a
		// flusher kick restarts the broadcast on new work.
		m.broadcastOn = false
	}
}

// busy reports whether any controller or persist buffer holds work.
func (m *Vorpal) busy() bool {
	for _, pend := range m.pending {
		if len(pend) > 0 {
			return true
		}
	}
	for _, c := range m.cores {
		if !c.pb.Empty() {
			return true
		}
	}
	return false
}

var _ Model = (*Vorpal)(nil)
