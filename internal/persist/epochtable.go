package persist

import "fmt"

// ETEntry is the metadata the epoch table keeps for one in-flight epoch
// (§V-A): outstanding write counts, cross-thread dependencies in both
// directions, the set of controllers that received early flushes, and the
// commit state machine's progress.
type ETEntry struct {
	TS uint64

	// Unacked counts writes of this epoch still live in the persist
	// buffer (waiting or inflight). The epoch is complete when the thread
	// has moved past it (Closed) and Unacked reaches zero.
	Unacked int

	// Deps are source epochs this epoch must wait on; Resolved counts CDR
	// messages received. With the paper's epoch-splitting rule an epoch
	// acquires at most one dependency, but the table supports several.
	Deps     []EpochID
	Resolved int

	// Dependents are remote epochs to notify with a CDR after commit.
	Dependents []EpochID

	// EarlyMCs records controllers that received early flushes from this
	// epoch, so commit messages go only where needed (§V-C). It is a
	// bitmask over controller IDs (config caps MCs at 64), which keeps
	// epoch bookkeeping allocation-free.
	EarlyMCs uint64
	// CommitAcks counts commit ACKs still outstanding.
	CommitAcks int

	// The flags come last, packed into one word of the ring slot.

	// Closed: the thread has started a later epoch; no new writes will
	// join this one.
	Closed bool
	// CommitSent: commit messages are in flight to the controllers.
	CommitSent bool
	// Committed: safe, complete, and all controllers acknowledged.
	Committed bool
	// Nacked: an early flush of this epoch was NACKed; the persist buffer
	// is in conservative mode until this epoch commits.
	Nacked bool
}

// DepsResolved reports whether every cross-thread dependency has been
// cleared by a CDR message.
func (e *ETEntry) DepsResolved() bool { return e.Resolved >= len(e.Deps) }

// AddEarlyMC records that controller mc received an early flush.
func (e *ETEntry) AddEarlyMC(mc int) { e.EarlyMCs |= 1 << uint(mc) }

// EarlyMCCount returns the number of controllers that saw early flushes.
func (e *ETEntry) EarlyMCCount() int {
	n := 0
	for m := e.EarlyMCs; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// EpochTable tracks the in-flight epochs of one core. Entries are ordered by
// TS; capacity bounds the number of uncommitted epochs, and an ofence that
// would exceed it stalls the core (§VI-A).
//
// Tracked timestamps always lie in the window [oldest, current], whose span
// is bounded by the table's occupancy, so the entries live by value in a
// power-of-two ring addressed by ts&mask: the Get on every flush ACK,
// commit attempt and CDR is two compares and an indexed load. A slot holds
// epoch ts while its TS field equals ts; a retired slot has TS 0 and keeps
// its Deps/Dependents backing arrays for the epoch that reuses it. The
// ring doubles in the rare case a burst of coherence-triggered splits
// pushes the window past its length (Advance may exceed nominal capacity;
// hardware reserves entries for this).
//
// A *ETEntry returned by Current, Get or Advance is a borrow into the
// ring: it stays valid until the next Advance or Retire on the table.
type EpochTable struct {
	capacity int
	thread   int
	current  uint64 // TS of the open epoch
	oldest   uint64 // lowest TS not yet retired
	ring     []ETEntry
	mask     uint64 // len(ring) - 1
	count    int    // tracked (unretired) epochs
	maxOcc   int
}

// etRingSize returns the initial ring length: the smallest power of two
// (at least 16) holding the nominal capacity. Only a coherence-split
// burst on a full table takes the window past it, and the first one grows
// the ring for the rest of the run.
func etRingSize(capacity int) int {
	n := 16
	for n < capacity {
		n *= 2
	}
	return n
}

// NewEpochTable returns a table for the given hardware thread. Epoch 1 is
// open immediately; TS 0 is reserved as "before all epochs".
func NewEpochTable(thread, capacity int) *EpochTable {
	if capacity <= 0 {
		panic("persist: epoch table capacity must be positive")
	}
	n := etRingSize(capacity)
	et := &EpochTable{
		capacity: capacity,
		thread:   thread,
		current:  1,
		oldest:   1,
		ring:     make([]ETEntry, n),
		mask:     uint64(n) - 1,
	}
	et.ring[1&et.mask].TS = 1
	et.count = 1
	et.maxOcc = 1
	return et
}

// Thread returns the owning hardware thread.
func (et *EpochTable) Thread() int { return et.thread }

// CurrentTS returns the open epoch's timestamp.
func (et *EpochTable) CurrentTS() uint64 { return et.current }

// Current returns the open epoch's entry.
func (et *EpochTable) Current() *ETEntry { return &et.ring[et.current&et.mask] }

// Get returns the entry for epoch ts, if still tracked. Within the window
// [oldest, current] ring slots are collision-free (the window never exceeds
// the ring length), so a slot holds either ts's entry or a retired one.
func (et *EpochTable) Get(ts uint64) (*ETEntry, bool) {
	if ts < et.oldest || ts > et.current {
		return nil, false
	}
	e := &et.ring[ts&et.mask]
	if e.TS != ts {
		return nil, false
	}
	return e, true
}

// Len returns the number of tracked (unretired) epochs.
func (et *EpochTable) Len() int { return et.count }

// MaxOccupancy returns the high-water mark of Len.
func (et *EpochTable) MaxOccupancy() int { return et.maxOcc }

// Full reports whether opening another epoch would exceed capacity.
func (et *EpochTable) Full() bool { return et.count >= et.capacity }

// OldestTS returns the lowest unretired epoch timestamp.
func (et *EpochTable) OldestTS() uint64 { return et.oldest }

// grow doubles the ring and re-places the tracked window up to the epoch
// Advance is opening: that one's old slot is the oldest epoch's, whose
// Deps/Dependents arrays the new epoch must not share.
func (et *EpochTable) grow() {
	old := et.ring
	oldMask := et.mask
	et.ring = make([]ETEntry, 2*len(old)) //asaplint:ignore alloccheck amortized doubling on transient over-capacity; steady state never grows
	et.mask = uint64(len(et.ring)) - 1
	for ts := et.oldest; ts < et.current; ts++ {
		et.ring[ts&et.mask] = old[ts&oldMask]
	}
}

// Advance closes the current epoch and opens a new one, returning its entry.
// Fence instructions must stall on Full before advancing; coherence-
// triggered splits, however, call Advance unconditionally — a coherence
// reply cannot stall without deadlocking the protocol, so the table may
// transiently exceed its nominal capacity (hardware reserves entries for
// this). Lemma 0.1's acyclicity argument requires that the dependency
// source epoch is always closed at creation.
//
//asap:hot runs on every epoch boundary (fences, coherence splits)
func (et *EpochTable) Advance() *ETEntry {
	et.ring[et.current&et.mask].Closed = true
	et.current++
	if et.current-et.oldest+1 > uint64(len(et.ring)) {
		et.grow()
	}
	e := &et.ring[et.current&et.mask]
	*e = ETEntry{TS: et.current, Deps: e.Deps[:0], Dependents: e.Dependents[:0]}
	et.count++
	if et.count > et.maxOcc {
		et.maxOcc = et.count
	}
	return e
}

// Retire removes a committed epoch from the table, freeing an entry.
//
//asap:hot runs once per committed epoch
func (et *EpochTable) Retire(ts uint64) {
	e, ok := et.Get(ts)
	if !ok {
		return
	}
	if !e.Committed {
		panic("persist: retiring uncommitted epoch")
	}
	// The slot keeps its Deps/Dependents backing arrays; Advance reuses
	// them for the epoch that next lands here.
	e.TS = 0
	et.count--
	for et.oldest <= et.current && et.ring[et.oldest&et.mask].TS != et.oldest {
		et.oldest++
	}
}

// PrevCommitted reports whether the epoch preceding ts has committed (or ts
// is the first epoch). Retired epochs are committed by definition.
func (et *EpochTable) PrevCommitted(ts uint64) bool {
	if ts <= 1 {
		return true
	}
	prev, ok := et.Get(ts - 1)
	if !ok {
		return true // already retired, hence committed
	}
	return prev.Committed
}

// AllCommitted reports whether no uncommitted epoch remains except possibly
// an empty open epoch with no writes. This is the dfence condition (§V-A).
func (et *EpochTable) AllCommitted() bool {
	for ts := et.oldest; ts <= et.current; ts++ {
		e := &et.ring[ts&et.mask]
		if e.TS != ts || e.Committed {
			continue
		}
		if !e.Closed && e.Unacked == 0 && len(e.Deps) == 0 {
			// The open epoch with nothing buffered does not block a
			// dfence: there is nothing to persist.
			continue
		}
		return false
	}
	return true
}

// Check verifies the table's invariants: a power-of-two ring covering the
// window [oldest, current], the open epoch tracked, every tracked slot at
// its own timestamp's position, and a count matching the tracked slots.
// checkpoint.Load runs it on every decoded table.
func (et *EpochTable) Check() error {
	n := uint64(len(et.ring))
	if et.capacity <= 0 || n == 0 || n&(n-1) != 0 || et.mask != n-1 {
		return fmt.Errorf("persist: epoch table ring of %d slots (mask %#x, capacity %d) is not a power of two", n, et.mask, et.capacity)
	}
	if et.oldest == 0 || et.oldest > et.current || et.current-et.oldest >= n {
		return fmt.Errorf("persist: epoch table window [%d, %d] does not fit its %d-slot ring", et.oldest, et.current, n)
	}
	if et.ring[et.current&et.mask].TS != et.current || et.ring[et.oldest&et.mask].TS != et.oldest {
		return fmt.Errorf("persist: epoch table does not track the ends of its window [%d, %d]", et.oldest, et.current)
	}
	count := 0
	for i := range et.ring {
		ts := et.ring[i].TS
		if ts == 0 {
			continue
		}
		if ts < et.oldest || ts > et.current || ts&et.mask != uint64(i) {
			return fmt.Errorf("persist: epoch table slot %d holds epoch %d outside its position in [%d, %d]", i, ts, et.oldest, et.current)
		}
		count++
	}
	if count != et.count || et.count > et.maxOcc {
		return fmt.Errorf("persist: epoch table counts %d tracked epochs (max %d), holds %d", et.count, et.maxOcc, count)
	}
	return nil
}
