package persist

import (
	"asap/internal/config"
	"asap/internal/sim"
)

// Link is the model↔controller message fabric: every flush and epoch
// commit a model issues toward a memory controller goes through it. It
// schedules one typed event per flush at +FlushLat and one per commit at
// +MsgLat, and keeps the payloads in pointer-free FIFO queues: a queued
// engine event carries only a kind and an arg, a payload names its
// controller by index, and the controllers reply to the model connected
// to them (MC.Connect). Deliveries of one kind share one latency, so the FIFOs dequeue in
// exactly the order the events fire.
type Link struct {
	eng *sim.Engine
	cfg config.Config
	mcs []*MC

	// delivery queues, head-indexed rings like MC's job queue.
	fq    []linkFlushSend
	fhead int
	cq    []linkCommitSend
	chead int
}

// linkFlushSend is one queued flush delivery.
type linkFlushSend struct {
	mc      int
	pkt     FlushPacket
	arg     uint64
	retried bool
}

// linkCommitSend is one queued commit delivery.
type linkCommitSend struct {
	mc    int
	epoch EpochID
}

// Typed-event kinds dispatched through Link.RunEvent.
const (
	linkEvFlush = iota
	linkEvCommit
)

// NewLink builds the fabric over eng.
func NewLink(eng *sim.Engine, cfg config.Config, mcs []*MC) *Link {
	return &Link{eng: eng, cfg: cfg, mcs: mcs}
}

// Register adds the link to its engine's receiver table, right after its
// controllers (see MC.Register).
func (l *Link) Register() {
	if l.eng.RegisterOp(l) != l.op() {
		panic("persist: link registered other than right after its controllers")
	}
}

// op is the link's receiver handle: the controller count.
func (l *Link) op() sim.Op { return sim.Op(len(l.mcs)) }

// Reset drops every message in flight. The delivery queues go back to nil,
// as a new link has none.
func (l *Link) Reset() { *l = Link{eng: l.eng, cfg: l.cfg, mcs: l.mcs} }

// FlushOp issues a flush to mcs[mcID], delivered after FlushLat; the
// controller's ACK/NACK comes back through its connected replier's
// FlushReply(arg, res). retried marks a NACK-retried flush, whose delivery
// removes the line's Bloom reservation at the controller.
//
//asap:hot flush issue: every persist-buffer drain goes through here
func (l *Link) FlushOp(mcID int, pkt FlushPacket, arg uint64, retried bool) {
	l.fq = append(l.fq, linkFlushSend{mc: mcID, pkt: pkt, arg: arg, retried: retried}) //asaplint:ignore alloccheck send queue reaches steady-state capacity, then appends reuse it
	l.eng.AfterOp(l.cfg.FlushLat, l.op(), linkEvFlush, 0)
}

// CommitOp sends an epoch-commit message to mcs[mcID], delivered after
// MsgLat; the ACK comes back through the controller's connected CommitAck.
//
//asap:hot commit issue: every epoch commit goes through here
func (l *Link) CommitOp(mcID int, e EpochID) {
	l.cq = append(l.cq, linkCommitSend{mc: mcID, epoch: e}) //asaplint:ignore alloccheck send queue reaches steady-state capacity, then appends reuse it
	l.eng.AfterOp(l.cfg.MsgLat, l.op(), linkEvCommit, 0)
}

// RunEvent dispatches the delivery queues.
//
//asap:hot link delivery: one event per flush/commit in flight
func (l *Link) RunEvent(kind int, arg uint64) {
	switch kind {
	case linkEvFlush:
		s := l.fq[l.fhead]
		l.fq[l.fhead] = linkFlushSend{}
		l.fhead++
		if l.fhead == len(l.fq) {
			l.fq = l.fq[:0]
			l.fhead = 0
		}
		mc := l.mcs[s.mc]
		if s.retried && mc.Bloom != nil {
			// The retry carries the newest value for the line; the Bloom
			// reservation that protected it from LLC-eviction drops lifts
			// the moment the retry reaches the controller.
			mc.Bloom.Remove(s.pkt.Line)
		}
		mc.ReceiveOp(s.pkt, s.arg)
	case linkEvCommit:
		s := l.cq[l.chead]
		l.cq[l.chead] = linkCommitSend{}
		l.chead++
		if l.chead == len(l.cq) {
			l.cq = l.cq[:0]
			l.chead = 0
		}
		l.mcs[s.mc].CommitOp(s.epoch)
	default:
		panic("persist: unknown Link event kind")
	}
}
