package mem

import (
	"fmt"

	"asap/internal/obs"
)

// Token is the value stored in one NVM line. The timing model does not
// simulate byte contents; instead every store in a workload carries a unique
// monotonically increasing token (a global store sequence number). The crash
// checker uses tokens to decide whether the post-recovery memory image could
// have been produced by a legal persist order (Theorem 2 in the paper).
//
// Token 0 means "never written".
type Token uint64

// NVM is the non-volatile media behind one memory controller. Contents
// survive a simulated crash by construction (they are only mutated by
// persists).
//
// The contents are an open-addressed, linear-probing table of POD slots, so
// a checkpoint captures and restores them with one memmove. A line that was
// written holds a slot even when its token is 0: the crash flush writes
// undo values of lines that were never written, and Snapshot reports them.
type NVM struct {
	slots  []nvmSlot // power-of-two length, or nil before the first write
	used   int       // occupied slots; the table grows past 3/4 load
	writes uint64
	reads  uint64

	trc   obs.Tracer // nil unless tracing; every use must be nil-guarded
	track obs.TrackID
}

// nvmSlot is one table slot. key is the line number plus one, so the zero
// slot is empty.
type nvmSlot struct {
	key Line
	tok Token
}

// nvmInitSlots is the table size made by the first write.
const nvmInitSlots = 64

// lineHash spreads line numbers across a power-of-two table (Fibonacci
// hashing). Workload lines are sequential within a structure, so the low
// bits alone would cluster whole regions onto neighbouring probe chains.
func lineHash(l Line) uint64 { return uint64(l) * 0x9E3779B97F4A7C15 >> 32 }

// NewNVM returns an empty device.
func NewNVM() *NVM { return &NVM{} }

// AttachTracer emits a media-write instant and cumulative write counter on
// track (the owning memory controller's track).
func (n *NVM) AttachTracer(tr obs.Tracer, track obs.TrackID) {
	n.trc = tr
	n.track = track
}

// find returns the slot holding line l, or the empty slot where l would go.
// The table is non-empty and always keeps an empty slot, so the probe ends.
func (n *NVM) find(l Line) int {
	mask := uint64(len(n.slots) - 1)
	for i := lineHash(l) & mask; ; i = (i + 1) & mask {
		if k := n.slots[i].key; k == 0 || k == l+1 {
			return int(i)
		}
	}
}

// Write persists token t to line l.
func (n *NVM) Write(l Line, t Token) {
	if (n.used+1)*4 > len(n.slots)*3 {
		n.grow()
	}
	i := n.find(l)
	if n.slots[i].key == 0 {
		n.slots[i].key = l + 1
		n.used++
	}
	n.slots[i].tok = t
	n.writes++
	if n.trc != nil {
		n.trc.Counter(n.track, "nvmWrites", int64(n.writes))
	}
}

// grow doubles the table (or makes the first one) and re-places every
// occupied slot. It runs once the table could pass 3/4 load, so a write
// of a line already held can grow it too, a slot early.
func (n *NVM) grow() {
	old := n.slots
	n.slots = make([]nvmSlot, max(2*len(old), nvmInitSlots)) //asaplint:ignore alloccheck amortized doubling to the workload footprint
	for _, s := range old {
		if s.key != 0 {
			n.slots[n.find(s.key-1)] = s
		}
	}
}

// Read returns the token at line l (0 if never written).
func (n *NVM) Read(l Line) Token {
	n.reads++
	return n.Peek(l)
}

// Peek returns the token at line l without counting a media access. Used by
// the crash checker.
func (n *NVM) Peek(l Line) Token {
	if len(n.slots) == 0 {
		return 0
	}
	return n.slots[n.find(l)].tok
}

// Writes returns the number of media write operations performed, the
// quantity plotted in Figure 9 (PM write endurance).
func (n *NVM) Writes() uint64 { return n.writes }

// Reads returns the number of media read operations performed.
func (n *NVM) Reads() uint64 { return n.reads }

// Snapshot copies the current contents. Used by tests to compare pre- and
// post-crash images.
func (n *NVM) Snapshot() map[Line]Token {
	out := make(map[Line]Token, n.used)
	for _, s := range n.slots {
		if s.key != 0 {
			out[s.key-1] = s.tok
		}
	}
	return out
}

// Check reports the first broken table invariant: a size that is not a
// power of two, an occupancy count that disagrees with the slots or passes
// the 3/4 load bound (a full table would make find loop forever), or a
// line stored where its probe sequence cannot reach it. A device decoded
// from a checkpoint image is checked before use.
func (n *NVM) Check() error {
	size := len(n.slots)
	if size&(size-1) != 0 {
		return fmt.Errorf("mem: NVM table size %d is not a power of two", size)
	}
	occupied := 0
	for _, s := range n.slots {
		if s.key != 0 {
			occupied++
		}
	}
	if occupied != n.used || n.used*4 > size*3 {
		return fmt.Errorf("mem: NVM holds %d lines in %d slots, count says %d", occupied, size, n.used)
	}
	for i, s := range n.slots {
		if s.key != 0 && n.find(s.key-1) != i {
			return fmt.Errorf("mem: NVM line %d sits in slot %d, off its probe sequence", s.key-1, i)
		}
	}
	return nil
}
