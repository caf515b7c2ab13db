package sim

import (
	"fmt"
	"math/bits"
)

// The pending-event queue. Almost every event in a run is scheduled a
// short, bounded distance ahead — the Table II latencies (cache hits,
// MsgLat, FlushLat, NVM) put at least 98.6% of schedules under every
// model fewer than 1024 cycles out — and the queue is never deep (5–13
// pending events on average). So, as gem5 does, the engine bins those
// events per cycle instead of heap-sorting them:
//
//   - A timing wheel of wheelSize one-cycle slots holds every event
//     scheduled less than wheelSize cycles ahead of now. Each slot
//     is a FIFO threaded through a pointer-free node slab; a bitmap of
//     occupied slots finds the next one with a few TrailingZeros64. The
//     slab stays dense — removing a node moves the last one into its
//     index — so it holds exactly the wheel's events after the nil
//     sentinel, and a checkpoint of a quiet engine captures a short slab.
//   - A 4-ary min-heap (the overflow) holds the rest: the far-future
//     events wheelSize or more cycles ahead.
//
// Dispatch takes the smaller of the wheel head and the overflow root under
// the (when, seq) key, so the order is exactly the one a single heap
// produces:
//
//   - seqs grow monotonically, so appending at a slot's tail keeps each
//     FIFO in seq order, and no two events share a seq;
//   - every wheel event lies in [now, now+wheelSize), so a slot holds a
//     single cycle and the first occupied slot at or after now&wheelMask
//     (circularly) holds the wheel's earliest cycle.
//
// The clock never moves backwards and never moves past a pending event
// without dispatching it (Run, RunUntil and JumpTo all respect that), which
// is what keeps the wheel window invariant true between dispatches.
//
// wheelSize must be a power of two, and a multiple of 64 so the occupancy
// bitmap's words tile the wheel; wheelWords must be a power of two too.
const (
	wheelSize  = 1024
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// wheelSlabCap is the node slab's initial capacity, above the average
// pending depth of a machine run (5–13 events), so the slab regrows only
// in a run's deepest bursts.
const wheelSlabCap = 16

// wheelSlot is one cycle's FIFO: head and tail indices into Engine.nodes,
// 0 (the sentinel node) when the slot is empty.
type wheelSlot struct {
	head, tail int32
}

// before orders events by (when, seq).
func before(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// enqueue schedules an event at when (>= now) under the next seq:
// onto the wheel when it falls within wheelSize cycles of now, into the
// overflow heap otherwise. The wheel node's fields are written in place
// rather than copied from an event value, which the compiler would spill
// and reload with wider loads than it stored (a store-forwarding stall on
// every schedule).
func (e *Engine) enqueue(when Cycles, opIdx, kind int32, arg uint64) {
	seq := e.seq
	e.seq++
	if when-e.now >= wheelSize {
		e.push(event{when: when, seq: seq, arg: arg, kind: kind, opIdx: opIdx})
		return
	}
	i := int32(len(e.nodes))
	if int(i) == cap(e.nodes) {
		e.nodes = append(e.nodes, event{}) //asaplint:ignore alloccheck slab growth: reaches the peak wheel depth once, then reuses it
	} else {
		e.nodes = e.nodes[:i+1]
	}
	n := &e.nodes[i]
	n.when, n.seq, n.arg = when, seq, arg
	n.kind, n.opIdx, n.next = kind, opIdx, 0
	slot := when & wheelMask
	s := &e.slots[slot]
	if s.head == 0 {
		s.head = i
		e.occ[slot>>6] |= 1 << (slot & 63)
	} else {
		e.nodes[s.tail].next = i
	}
	s.tail = i
}

// nextSlot returns the first occupied wheel slot at or after now&wheelMask,
// circularly: the slot holding the wheel's earliest cycle. The wheel must
// be non-empty.
func (e *Engine) nextSlot() int {
	s := int(e.now & wheelMask)
	w := s >> 6
	if word := e.occ[w] >> (s & 63); word != 0 {
		return s + bits.TrailingZeros64(word)
	}
	// The remaining words in circular order; the last pass over word w
	// sees only the bits below s, as the bits at or above s are clear.
	for k := 0; k < wheelWords; k++ {
		w = (w + 1) & (wheelWords - 1)
		if word := e.occ[w]; word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	panic("sim: wheel count says pending but no slot is occupied")
}

// peek returns the earliest pending event and where it sits: the wheel
// slot it heads, or -1 for the overflow root. It returns nil when nothing
// is pending. Every loop that dispatches (Run, RunUntil, Step) and
// JumpTo's pending-event check go through here.
func (e *Engine) peek() (*event, int) {
	if len(e.nodes) == 1 {
		if len(e.overflow) == 0 {
			return nil, -1
		}
		return &e.overflow[0], -1
	}
	slot := e.nextSlot()
	ev := &e.nodes[e.slots[slot].head]
	if len(e.overflow) > 0 && before(&e.overflow[0], ev) {
		return &e.overflow[0], -1
	}
	return ev, slot
}

// unlinkHead removes the head of wheel slot slot and closes the gap it
// leaves in the slab, so the slab shrinks with the wheel and returns to the
// bare sentinel whenever the wheel drains.
func (e *Engine) unlinkHead(slot int) {
	s := &e.slots[slot]
	i := s.head
	s.head = e.nodes[i].next
	if s.head == 0 {
		s.tail = 0
		e.occ[slot>>6] &^= 1 << (slot & 63)
	}
	last := int32(len(e.nodes) - 1)
	if i != last {
		e.relink(last, i)
	}
	e.nodes = e.nodes[:last]
}

// relink moves slab node from to the free index to and repoints the one
// link that reached it: its slot's head, or its predecessor's next (a
// short walk, as a slot holds one cycle's events).
func (e *Engine) relink(from, to int32) {
	ev := &e.nodes[to]
	*ev = e.nodes[from]
	s := &e.slots[ev.when&wheelMask]
	if s.tail == from {
		s.tail = to
	}
	if s.head == from {
		s.head = to
		return
	}
	p := s.head
	for e.nodes[p].next != from {
		p = e.nodes[p].next
	}
	e.nodes[p].next = to
}

// push inserts ev into the overflow heap, sifting it up.
func (e *Engine) push(ev event) {
	e.overflow = append(e.overflow, ev) //asaplint:ignore alloccheck heap storage reaches steady-state capacity, then appends reuse it
	h := e.overflow
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !before(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// popMin removes the overflow root. Events are pointer-free, so the
// vacated tail slot needs no zeroing for the collector's sake.
func (e *Engine) popMin() {
	n := len(e.overflow) - 1
	e.overflow[0] = e.overflow[n]
	e.overflow = e.overflow[:n]
	if n > 1 {
		e.siftDown(0)
	}
}

// siftDown restores the heap property below slot i: swap with the smallest
// of up to four children until neither child is smaller.
func (e *Engine) siftDown(i int) {
	h := e.overflow
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		m := first
		last := min(first+4, n)
		for c := first + 1; c < last; c++ {
			if before(&h[c], &h[m]) {
				m = c
			}
		}
		if !before(&h[m], &h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// CheckQueue verifies the queue's structural invariants and reports the
// first violation. A machine decoded from a checkpoint image is checked
// before it is handed out, so a malformed queue is an error at Load rather
// than a panic (or a silently misordered dispatch) in Run. It checks that
//
//   - slot chains stay inside the slab, are acyclic, share no node and
//     together cover it, and each slot's tail is its chain's last node;
//   - every wheel event sits in its own cycle's slot, within
//     [now, now+wheelSize), in increasing seq order;
//   - occupancy bits match the non-empty slots;
//   - the overflow heap is heap-ordered and nothing in it precedes now;
//   - every event's seq is below the engine's counter, so no future
//     event can tie a queued one on (when, seq);
//   - every event's receiver index is in range.
func (e *Engine) CheckQueue() error {
	if len(e.nodes) == 0 || e.nodes[0] != (event{}) {
		return fmt.Errorf("sim: wheel slab lacks its zero sentinel node")
	}
	used := make([]bool, len(e.nodes))
	live := 0
	for s := range e.slots {
		sl := e.slots[s]
		occupied := e.occ[s>>6]&(1<<(s&63)) != 0
		if sl.head == 0 {
			if occupied || sl.tail != 0 {
				return fmt.Errorf("sim: empty wheel slot %d has occupancy bit %v, tail %d", s, occupied, sl.tail)
			}
			continue
		}
		if !occupied {
			return fmt.Errorf("sim: wheel slot %d holds events but its occupancy bit is clear", s)
		}
		last := int32(0)
		for i := sl.head; i != 0; i = e.nodes[i].next {
			if i < 0 || int(i) >= len(e.nodes) {
				return fmt.Errorf("sim: wheel slot %d links index %d outside the slab [1, %d)", s, i, len(e.nodes))
			}
			if used[i] {
				return fmt.Errorf("sim: wheel slot %d reaches slab node %d twice (cycle or shared node)", s, i)
			}
			used[i] = true
			ev := &e.nodes[i]
			if int(ev.when&wheelMask) != s || ev.when < e.now || ev.when-e.now >= wheelSize {
				return fmt.Errorf("sim: wheel event at cycle %d in slot %d (clock %d)", ev.when, s, e.now)
			}
			if last != 0 && ev.seq <= e.nodes[last].seq {
				return fmt.Errorf("sim: wheel slot %d out of seq order", s)
			}
			if ev.seq >= e.seq {
				return fmt.Errorf("sim: wheel event seq %d not below the counter %d", ev.seq, e.seq)
			}
			if err := e.checkTarget(ev); err != nil {
				return err
			}
			last = i
			live++
		}
		if sl.tail != last {
			return fmt.Errorf("sim: wheel slot %d tail %d, chain ends at %d", s, sl.tail, last)
		}
	}
	if live != len(e.nodes)-1 {
		return fmt.Errorf("sim: wheel chains hold %d of the slab's %d nodes", live, len(e.nodes)-1)
	}
	for i := range e.overflow {
		ev := &e.overflow[i]
		if ev.when < e.now {
			return fmt.Errorf("sim: overflow event at cycle %d precedes the clock %d", ev.when, e.now)
		}
		if ev.seq >= e.seq {
			return fmt.Errorf("sim: overflow event seq %d not below the counter %d", ev.seq, e.seq)
		}
		if i > 0 && before(ev, &e.overflow[(i-1)/4]) {
			return fmt.Errorf("sim: overflow heap out of order at slot %d", i)
		}
		if err := e.checkTarget(ev); err != nil {
			return err
		}
	}
	return nil
}

// checkTarget reports an event whose receiver index is out of range.
func (e *Engine) checkTarget(ev *event) error {
	if ev.opIdx < 0 || int(ev.opIdx) >= len(e.ops) {
		return fmt.Errorf("sim: event at cycle %d names receiver %d of %d", ev.when, ev.opIdx, len(e.ops))
	}
	return nil
}
