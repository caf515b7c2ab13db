package persist

import (
	"fmt"

	"asap/internal/mem"
	"asap/internal/obs"
)

// PBState is the lifecycle of one persist buffer entry.
type PBState uint8

const (
	// PBWaiting: enqueued, not yet flushed (or NACKed and awaiting retry).
	PBWaiting PBState = iota
	// PBInflight: flush issued to the memory controller, awaiting ACK.
	PBInflight
)

// PBEntry is one buffered write. Entries keep FIFO order; an entry is
// removed when the controller ACKs its flush (§V-A).
type PBEntry struct {
	ID    uint64
	Line  mem.Line
	Token mem.Token
	TS    uint64 // epoch timestamp the write belongs to
	State PBState
	// Early records whether the last issue of this entry was speculative.
	Early bool
	// Nacked marks an entry whose early flush was rejected; it must be
	// reissued as a safe flush once its epoch becomes safe (§V-D).
	Nacked bool
}

// PersistBuffer is the per-core circular buffer queueing writes to NVM
// alongside the private caches. Writes to the same line within the same
// epoch coalesce while still waiting, which both reduces NVM traffic and
// models the coalescing the paper credits for write-endurance gains.
//
// The entries are a slab of values sized to the hardware buffer at
// construction. A *PBEntry returned by NextWaiting, NextWaitingIn or Nack
// (or taken from Entries) is a borrow into that slab: it stays valid until
// the next Enqueue or Ack on the buffer.
type PersistBuffer struct {
	capacity int
	nextID   uint64
	entries  []PBEntry // FIFO order, arbitrary removal on ACK; allocated at capacity
	inflight int

	inserted  uint64
	coalesced uint64
	maxOcc    int

	trc   obs.Tracer // nil unless tracing; every use must be nil-guarded
	track obs.TrackID
}

// NewPersistBuffer returns a buffer holding capacity entries.
func NewPersistBuffer(capacity int) *PersistBuffer {
	if capacity <= 0 {
		panic("persist: persist buffer capacity must be positive")
	}
	return &PersistBuffer{capacity: capacity, entries: make([]PBEntry, 0, capacity)}
}

// AttachTracer emits occupancy counters and insert/flush events on track
// (the owning core's persist-path track).
func (pb *PersistBuffer) AttachTracer(tr obs.Tracer, track obs.TrackID) {
	pb.trc = tr
	pb.track = track
}

// Len returns the number of live entries (waiting + inflight).
func (pb *PersistBuffer) Len() int { return len(pb.entries) }

// Full reports whether a new entry cannot be accepted; the core must stall
// (cyclesStalled in Table VI).
func (pb *PersistBuffer) Full() bool { return len(pb.entries) >= pb.capacity }

// Empty reports whether the buffer has no live entries.
func (pb *PersistBuffer) Empty() bool { return len(pb.entries) == 0 }

// Inflight returns the number of entries awaiting an ACK.
func (pb *PersistBuffer) Inflight() int { return pb.inflight }

// Inserted returns total enqueued writes (entriesInserted in Table VI).
func (pb *PersistBuffer) Inserted() uint64 { return pb.inserted }

// Coalesced returns writes absorbed into an existing waiting entry.
func (pb *PersistBuffer) Coalesced() uint64 { return pb.coalesced }

// MaxOccupancy returns the high-water mark of Len.
func (pb *PersistBuffer) MaxOccupancy() int { return pb.maxOcc }

// Enqueue buffers a write of token to line within epoch ts. If a waiting
// entry for the same line and epoch exists, the write coalesces into it.
// It reports (coalesced, accepted); accepted is false when the buffer is
// full and nothing coalesced.
//
//asap:hot every persistent store enqueues here
func (pb *PersistBuffer) Enqueue(line mem.Line, token mem.Token, ts uint64) (bool, bool) {
	for i := len(pb.entries) - 1; i >= 0; i-- {
		e := &pb.entries[i]
		if e.Line == line && e.TS == ts && e.State == PBWaiting {
			e.Token = token
			pb.coalesced++
			if pb.trc != nil {
				pb.trc.Instant(pb.track, "pb coalesce")
			}
			return true, true
		}
		// Stop scanning past an older epoch's entry for this line:
		// coalescing across epochs would break ordering.
		if e.Line == line {
			break
		}
	}
	if pb.Full() {
		return false, false
	}
	pb.nextID++
	//asaplint:ignore alloccheck bounded by capacity (Full checked above); the slab is allocated at construction
	pb.entries = append(pb.entries, PBEntry{
		ID:    pb.nextID,
		Line:  line,
		Token: token,
		TS:    ts,
		State: PBWaiting,
	})
	pb.inserted++
	if len(pb.entries) > pb.maxOcc {
		pb.maxOcc = len(pb.entries)
	}
	if pb.trc != nil {
		pb.trc.Counter(pb.track, "pb", int64(len(pb.entries)))
	}
	return false, true
}

// NextWaiting returns the oldest waiting entry of any epoch, or nil.
//
//asap:hot flush-issue path, polled once per drained entry
func (pb *PersistBuffer) NextWaiting() *PBEntry {
	for i := range pb.entries {
		if e := &pb.entries[i]; e.State == PBWaiting {
			return e
		}
	}
	return nil
}

// NextWaitingIn returns the oldest waiting entry of epoch ts, or nil: the
// conservative policies flush only the oldest epoch.
//
//asap:hot flush-issue path, polled once per drained entry
func (pb *PersistBuffer) NextWaitingIn(ts uint64) *PBEntry {
	for i := range pb.entries {
		if e := &pb.entries[i]; e.State == PBWaiting && e.TS == ts {
			return e
		}
	}
	return nil
}

// MarkInflight transitions a waiting entry to inflight with the given
// speculation mark.
//
//asap:hot runs once per issued flush
func (pb *PersistBuffer) MarkInflight(e *PBEntry, early bool) {
	if e.State != PBWaiting {
		panic("persist: MarkInflight on non-waiting entry")
	}
	e.State = PBInflight
	e.Early = early
	pb.inflight++
}

// Ack removes the entry with the given ID, returning a copy of it and true
// (false if the ID is unknown, which indicates a protocol bug upstream).
// Later entries shift down one slot, keeping FIFO order in the slab.
//
//asap:hot runs once per completed flush
func (pb *PersistBuffer) Ack(id uint64) (PBEntry, bool) {
	for i := range pb.entries {
		if e := &pb.entries[i]; e.ID == id {
			if e.State != PBInflight {
				panic("persist: ACK for entry that was not inflight")
			}
			pb.inflight--
			out := *e
			n := len(pb.entries) - 1
			copy(pb.entries[i:], pb.entries[i+1:])
			pb.entries[n] = PBEntry{}
			pb.entries = pb.entries[:n]
			if pb.trc != nil {
				pb.trc.Counter(pb.track, "pb", int64(len(pb.entries)))
			}
			return out, true
		}
	}
	return PBEntry{}, false
}

// Nack returns the entry with the given ID to the waiting state and marks it
// NACKed so the flush policy reissues it as a safe flush.
//
//asap:hot misspeculation recovery path
func (pb *PersistBuffer) Nack(id uint64) *PBEntry {
	for i := range pb.entries {
		if e := &pb.entries[i]; e.ID == id {
			if e.State != PBInflight {
				panic("persist: NACK for entry that was not inflight")
			}
			pb.inflight--
			e.State = PBWaiting
			e.Nacked = true
			return e
		}
	}
	return nil
}

// PendingForEpoch counts live entries belonging to epoch ts.
func (pb *PersistBuffer) PendingForEpoch(ts uint64) int {
	n := 0
	for i := range pb.entries {
		if pb.entries[i].TS == ts {
			n++
		}
	}
	return n
}

// HasLine reports whether a live entry exists for line (used by the LLC
// eviction path: the newest value may still be here, §V-F).
//
//asap:hot probed on every LLC eviction
func (pb *PersistBuffer) HasLine(line mem.Line) bool {
	for i := range pb.entries {
		if pb.entries[i].Line == line {
			return true
		}
	}
	return false
}

// Entries returns the live entries in FIFO order (read-only use, a borrow
// like the entry pointers).
func (pb *PersistBuffer) Entries() []PBEntry { return pb.entries }

// Check verifies the buffer's invariants: occupancy within capacity, entry
// IDs strictly increasing in FIFO order and never above the last one handed
// out, known states, and an inflight count matching the inflight entries.
// checkpoint.Load runs it on every decoded buffer.
func (pb *PersistBuffer) Check() error {
	if pb.capacity <= 0 || len(pb.entries) > pb.capacity {
		return fmt.Errorf("persist: persist buffer holds %d entries for capacity %d", len(pb.entries), pb.capacity)
	}
	var prev uint64
	inflight := 0
	for _, e := range pb.entries {
		if e.ID <= prev || e.ID > pb.nextID {
			return fmt.Errorf("persist: persist buffer entry ID %d out of order (previous %d, last issued %d)", e.ID, prev, pb.nextID)
		}
		prev = e.ID
		switch e.State {
		case PBWaiting:
		case PBInflight:
			inflight++
		default:
			return fmt.Errorf("persist: persist buffer entry %d has unknown state %d", e.ID, e.State)
		}
	}
	if inflight != pb.inflight {
		return fmt.Errorf("persist: persist buffer counts %d inflight entries, holds %d", pb.inflight, inflight)
	}
	return nil
}
