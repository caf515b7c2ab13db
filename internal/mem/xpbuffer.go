package mem

import (
	"fmt"

	"asap/internal/obs"
)

// XPBuffer models the small internal line cache of an Optane DIMM. The ASAP
// paper leans on it to argue that the read-before-write needed to create an
// undo record is usually cheap: "XPBuffer in Intel Optane Persistent memory
// caches most recently accessed lines. Writes would mostly hit in this
// cache" (§V-A). We model it as an LRU cache of line tokens, populated by
// both reads and writes.
//
// The state is pointer-free, so a checkpoint captures it with memmoves:
// the cached lines live in a node slab threaded into a circular LRU list
// by int32 links through the sentinel nodes[0], and an open-addressed
// index maps a line to its node.
type XPBuffer struct {
	capacity int
	// nodes[0] is the list sentinel: its next is the most recently used
	// node and its prev the least. Cached lines occupy nodes[1:]; the slab
	// grows to capacity+1 nodes, then the LRU node is recycled.
	nodes []xpNode
	// index holds the node of each cached line (0 = empty slot), placed by
	// linear probing from lineHash. Its power-of-two length is at least
	// twice the capacity, so a probe always ends at an empty slot.
	index  []int32
	hits   uint64
	misses uint64

	trc   obs.Tracer // nil unless tracing; every use must be nil-guarded
	track obs.TrackID
}

type xpNode struct {
	line       Line
	token      Token
	prev, next int32
}

// NewXPBuffer returns an LRU buffer holding capacity lines. A capacity of
// zero disables the buffer (every lookup misses).
func NewXPBuffer(capacity int) *XPBuffer {
	size := 1
	for size < 2*capacity {
		size <<= 1
	}
	x := &XPBuffer{
		capacity: capacity,
		nodes:    make([]xpNode, 1, capacity+1),
		index:    make([]int32, size),
	}
	x.Reset()
	return x
}

// Reset empties the buffer and detaches its tracer, keeping its storage.
func (x *XPBuffer) Reset() {
	clear(x.index)
	x.nodes = x.nodes[:1]
	x.nodes[0] = xpNode{}
	*x = XPBuffer{capacity: x.capacity, nodes: x.nodes, index: x.index}
}

// AttachTracer emits hit/miss instants on track (the owning memory
// controller's track).
func (x *XPBuffer) AttachTracer(tr obs.Tracer, track obs.TrackID) {
	x.trc = tr
	x.track = track
}

// find returns the index slot holding line l, or the empty slot where l
// would go.
func (x *XPBuffer) find(l Line) int {
	mask := uint64(len(x.index) - 1)
	for i := lineHash(l) & mask; ; i = (i + 1) & mask {
		if n := x.index[i]; n == 0 || x.nodes[n].line == l {
			return int(i)
		}
	}
}

// Lookup returns the cached token for line l and whether it was present.
func (x *XPBuffer) Lookup(l Line) (Token, bool) {
	n := x.index[x.find(l)]
	if n == 0 {
		x.misses++
		if x.trc != nil {
			x.trc.Instant(x.track, "xp miss")
		}
		return 0, false
	}
	x.hits++
	if x.trc != nil {
		x.trc.Instant(x.track, "xp hit")
	}
	x.moveToFront(n)
	return x.nodes[n].token, true
}

// Insert caches token t for line l, evicting the LRU entry if full.
func (x *XPBuffer) Insert(l Line, t Token) {
	if x.capacity == 0 {
		return
	}
	i := x.find(l)
	if n := x.index[i]; n != 0 {
		x.nodes[n].token = t
		x.moveToFront(n)
		return
	}
	var n int32
	if x.Len() < x.capacity {
		n = int32(len(x.nodes))
		x.nodes = append(x.nodes, xpNode{}) //asaplint:ignore alloccheck within the capacity preallocated by NewXPBuffer
	} else {
		// Recycle the LRU node; its line leaves the index, which may
		// shift l's insertion slot.
		n = x.nodes[0].prev
		x.unlink(n)
		x.remove(x.find(x.nodes[n].line))
		i = x.find(l)
	}
	x.nodes[n].line, x.nodes[n].token = l, t
	x.index[i] = n
	x.pushFront(n)
}

// remove empties index slot i by backward shift: each later entry of the
// probe run moves back into the hole unless its home slot lies cyclically
// in (hole, entry], where moving it would put it before its home. No
// tombstones, so lookups stay as short as after a fresh build.
func (x *XPBuffer) remove(i int) {
	mask := len(x.index) - 1
	for j := (i + 1) & mask; x.index[j] != 0; j = (j + 1) & mask {
		home := int(lineHash(x.nodes[x.index[j]].line)) & mask
		if (j-home)&mask >= (j-i)&mask {
			x.index[i] = x.index[j]
			i = j
		}
	}
	x.index[i] = 0
}

// Len returns the number of cached lines.
func (x *XPBuffer) Len() int { return len(x.nodes) - 1 }

// Hits and Misses report lookup outcomes.
func (x *XPBuffer) Hits() uint64   { return x.hits }
func (x *XPBuffer) Misses() uint64 { return x.misses }

func (x *XPBuffer) moveToFront(n int32) {
	if x.nodes[0].next == n {
		return
	}
	x.unlink(n)
	x.pushFront(n)
}

func (x *XPBuffer) pushFront(n int32) {
	first := x.nodes[0].next
	x.nodes[n].prev, x.nodes[n].next = 0, first
	x.nodes[first].prev = n
	x.nodes[0].next = n
}

func (x *XPBuffer) unlink(n int32) {
	prev, next := x.nodes[n].prev, x.nodes[n].next
	x.nodes[prev].next = next
	x.nodes[next].prev = prev
}

// Check reports the first broken invariant: more nodes than the capacity
// allows, an index too small to keep an empty slot, an LRU list that
// leaves the slab, is cyclic or misses a node, or an index that disagrees
// with the list or holds a line off its probe sequence. A buffer decoded
// from a checkpoint image is checked before use.
func (x *XPBuffer) Check() error {
	size := len(x.index)
	if x.capacity < 0 || len(x.nodes) == 0 || x.Len() > x.capacity {
		return fmt.Errorf("mem: XPBuffer holds %d of %d lines", len(x.nodes)-1, x.capacity)
	}
	if size == 0 || size&(size-1) != 0 || size/2 < x.capacity {
		return fmt.Errorf("mem: XPBuffer index of %d slots for %d lines", size, x.capacity)
	}
	// Every step checks the back link, so the first node reached twice
	// (a cycle) fails it: its prev already names its first predecessor.
	// The walk therefore ends within Len steps, and ending back at the
	// sentinel after exactly Len steps means it visited every node.
	cur, steps := int32(0), 0
	for {
		next := x.nodes[cur].next
		if next < 0 || int(next) >= len(x.nodes) || x.nodes[next].prev != cur {
			return fmt.Errorf("mem: XPBuffer LRU link %d -> %d is broken or cyclic", cur, next)
		}
		if next == 0 {
			break
		}
		cur = next
		steps++
	}
	if steps != x.Len() {
		return fmt.Errorf("mem: XPBuffer LRU list holds %d of %d nodes", steps, x.Len())
	}
	indexed := 0
	for _, n := range x.index {
		if n < 0 || int(n) >= len(x.nodes) {
			return fmt.Errorf("mem: XPBuffer index names node %d outside the slab", n)
		}
		if n != 0 {
			indexed++
		}
	}
	if indexed != x.Len() {
		return fmt.Errorf("mem: XPBuffer index holds %d of %d lines", indexed, x.Len())
	}
	for i, n := range x.index {
		if n != 0 && x.find(x.nodes[n].line) != i {
			return fmt.Errorf("mem: XPBuffer index slot %d holds line %d off its probe sequence, or twice", i, x.nodes[n].line)
		}
	}
	return nil
}
