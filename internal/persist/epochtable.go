package persist

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

	// Closed: the thread has started a later epoch; no new writes will
	// join this one.
	Closed bool
	// CommitSent: commit messages are in flight to the controllers.
	CommitSent bool
	// CommitAcks counts commit ACKs still outstanding.
	CommitAcks int
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
// is bounded by the table's occupancy, so the TS → entry index is a
// power-of-two ring addressed by ts&mask rather than a map: the Get on
// every flush ACK, commit attempt and CDR is two compares and an indexed
// load. The ring doubles in the rare case a burst of coherence-triggered
// splits pushes the window past its length (Advance may exceed nominal
// capacity; hardware reserves entries for this).
type EpochTable struct {
	capacity int
	thread   int
	current  uint64 // TS of the open epoch
	oldest   uint64 // lowest TS not yet retired
	ring     []*ETEntry
	mask     uint64 // len(ring) - 1
	count    int    // tracked (unretired) epochs
	maxOcc   int
	free     []*ETEntry // retired entries, recycled by Advance
}

// etRingSize returns the initial ring length: a power of two comfortably
// above the nominal capacity so transient over-capacity windows rarely
// force a grow.
func etRingSize(capacity int) int {
	n := 16
	for n < 2*capacity {
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
		ring:     make([]*ETEntry, n),
		mask:     uint64(n) - 1,
	}
	et.ring[1&et.mask] = &ETEntry{TS: 1}
	et.count = 1
	et.maxOcc = 1
	return et
}

// Thread returns the owning hardware thread.
func (et *EpochTable) Thread() int { return et.thread }

// CurrentTS returns the open epoch's timestamp.
func (et *EpochTable) CurrentTS() uint64 { return et.current }

// Current returns the open epoch's entry.
func (et *EpochTable) Current() *ETEntry { return et.ring[et.current&et.mask] }

// Get returns the entry for epoch ts, if still tracked. Within the window
// [oldest, current] ring slots are collision-free (the window never exceeds
// the ring length), so a slot holds either ts's entry or nil (retired).
func (et *EpochTable) Get(ts uint64) (*ETEntry, bool) {
	if ts < et.oldest || ts > et.current {
		return nil, false
	}
	e := et.ring[ts&et.mask]
	if e == nil {
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

// grow doubles the ring and re-places the tracked window.
func (et *EpochTable) grow() {
	old := et.ring
	oldMask := et.mask
	et.ring = make([]*ETEntry, 2*len(old)) //asaplint:ignore alloccheck amortized doubling on transient over-capacity; steady state never grows
	et.mask = uint64(len(et.ring)) - 1
	for ts := et.oldest; ts <= et.current; ts++ {
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
	var e *ETEntry
	if n := len(et.free); n > 0 {
		e = et.free[n-1]
		et.free[n-1] = nil
		et.free = et.free[:n-1]
		deps, dependents := e.Deps[:0], e.Dependents[:0]
		*e = ETEntry{TS: et.current, Deps: deps, Dependents: dependents}
	} else {
		e = &ETEntry{TS: et.current} //asaplint:ignore alloccheck free-list miss; bounded by the table's live window, then recycled forever
	}
	et.ring[et.current&et.mask] = e
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
	et.ring[ts&et.mask] = nil
	et.count--
	// Recycle the entry; Advance reuses it (and its Deps/Dependents
	// backing arrays) for a future epoch. Callers must not retain
	// *ETEntry pointers across Retire.
	et.free = append(et.free, e) //asaplint:ignore alloccheck free list bounded by the table's live window; backing array reaches it once
	for et.oldest <= et.current && et.ring[et.oldest&et.mask] == nil {
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
		e := et.ring[ts&et.mask]
		if e == nil || e.Committed {
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
