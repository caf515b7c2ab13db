package mem

import (
	"fmt"

	"asap/internal/obs"
)

// WPQ is the write-pending queue of a memory controller. On platforms with
// ADR the WPQ is inside the persistence domain: a write is durable the
// moment it is accepted here (§II-C), and the queue is drained to NVM on a
// power failure. The queue coalesces writes to the same line, which the
// paper observes reduces PM write traffic for concurrent workloads (§VII-A,
// "Coalescing in the WPQ").
//
// The queue is a fixed ring of capacity POD slots holding distinct lines
// in FIFO order. Lookups scan it: the queue is 16 entries deep on the
// paper's platform, and a scan of that many slots costs less than hashing.
type WPQ struct {
	ring      []wpqSlot // len is the capacity
	head      int       // oldest entry
	n         int       // queued entries
	coalesced uint64
	maxOcc    int

	trc   obs.Tracer // nil unless tracing; every use must be nil-guarded
	track obs.TrackID
}

// wpqSlot is one pending write.
type wpqSlot struct {
	line Line
	tok  Token
}

// NewWPQ returns a queue holding capacity distinct lines.
func NewWPQ(capacity int) *WPQ {
	if capacity <= 0 {
		panic("mem: WPQ capacity must be positive")
	}
	w := &WPQ{ring: make([]wpqSlot, capacity)}
	w.Reset()
	return w
}

// Reset empties the queue and detaches its tracer, keeping its ring.
func (w *WPQ) Reset() {
	clear(w.ring)
	*w = WPQ{ring: w.ring}
}

// AttachTracer emits queue-depth counters and coalesce instants on track
// (the owning memory controller's track).
func (w *WPQ) AttachTracer(tr obs.Tracer, track obs.TrackID) {
	w.trc = tr
	w.track = track
}

// Full reports whether a new distinct line cannot currently be accepted.
func (w *WPQ) Full() bool { return w.n >= len(w.ring) }

// Len returns the number of distinct queued lines.
func (w *WPQ) Len() int { return w.n }

// MaxOccupancy returns the high-water mark of Len.
func (w *WPQ) MaxOccupancy() int { return w.maxOcc }

// Coalesced returns the number of inserts absorbed by an existing entry.
func (w *WPQ) Coalesced() uint64 { return w.coalesced }

// slot returns the ring index of the i-th oldest entry.
func (w *WPQ) slot(i int) int {
	if i += w.head; i >= len(w.ring) {
		i -= len(w.ring)
	}
	return i
}

// find returns the ring index holding line l, or -1.
func (w *WPQ) find(l Line) int {
	for i := 0; i < w.n; i++ {
		if s := w.slot(i); w.ring[s].line == l {
			return s
		}
	}
	return -1
}

// Contains reports whether line l has a pending write, returning its token.
func (w *WPQ) Contains(l Line) (Token, bool) {
	if s := w.find(l); s >= 0 {
		return w.ring[s].tok, true
	}
	return 0, false
}

// Insert queues token t for line l. If the line is already pending the
// write coalesces in place and Insert always succeeds; otherwise it fails
// when the queue is full. It reports whether the insert was accepted.
func (w *WPQ) Insert(l Line, t Token) bool {
	if s := w.find(l); s >= 0 {
		w.ring[s].tok = t
		w.coalesced++
		if w.trc != nil {
			w.trc.Instant(w.track, "wpq coalesce")
		}
		return true
	}
	if w.Full() {
		return false
	}
	w.ring[w.slot(w.n)] = wpqSlot{line: l, tok: t}
	w.n++
	if w.n > w.maxOcc {
		w.maxOcc = w.n
	}
	if w.trc != nil {
		w.trc.Counter(w.track, "wpq", int64(w.n))
	}
	return true
}

// Pop removes and returns the oldest pending write. It panics on an empty
// queue; callers gate on Len.
func (w *WPQ) Pop() (Line, Token) {
	if w.n == 0 {
		panic("mem: Pop on empty WPQ")
	}
	s := w.ring[w.head]
	w.head = w.slot(1)
	w.n--
	if w.trc != nil {
		w.trc.Counter(w.track, "wpq", int64(w.n))
	}
	return s.line, s.tok
}

// Drain empties the queue into nvm, as the ADR logic does on power failure.
func (w *WPQ) Drain(nvm *NVM) {
	for w.n > 0 {
		l, t := w.Pop()
		nvm.Write(l, t)
	}
}

// Check reports the first broken queue invariant: an empty ring, a head or
// length outside it, or a line queued twice. A queue decoded from a
// checkpoint image is checked before use.
func (w *WPQ) Check() error {
	if len(w.ring) == 0 || w.head < 0 || w.head >= len(w.ring) || w.n < 0 || w.n > len(w.ring) {
		return fmt.Errorf("mem: WPQ head %d, length %d outside its %d-slot ring", w.head, w.n, len(w.ring))
	}
	for i := 0; i < w.n; i++ {
		if l := w.ring[w.slot(i)].line; w.find(l) != w.slot(i) {
			return fmt.Errorf("mem: WPQ queues line %d twice", l)
		}
	}
	return nil
}
