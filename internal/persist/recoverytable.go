package persist

import (
	"cmp"
	"fmt"
	"slices"

	"asap/internal/mem"
	"asap/internal/obs"
)

// UndoRecord stores the safe state for a speculatively updated address: the
// value in memory prior to the speculative persist, or the value written by
// the most recent safe flush (§V-A). Creator is the epoch whose early flush
// created the record; the record is deleted when that epoch commits.
type UndoRecord struct {
	Line    mem.Line
	Safe    mem.Token
	Creator EpochID
}

// DelayRecord holds an early write that arrived while an undo record already
// existed for its line. It is applied when its epoch commits (§IV-F).
type DelayRecord struct {
	Line  mem.Line
	Token mem.Token
	Epoch EpochID
}

// RecoveryTable is the CAM in each memory controller holding undo and delay
// records. Undo and delay records share the table's capacity.
//
// Each kind lives in a fixed slice of capacity records, the first nUndo
// (nDelay) of them live, in arrival order. Lookups scan them: the table
// holds 32 records on the paper's platform, and a scan of that many costs
// less than hashing. Within one epoch, delays to the same line coalesce
// (§VII-A, "Coalescing in the Recovery Table"), and arrival order across
// lines is preserved.
type RecoveryTable struct {
	undo      []UndoRecord  // len is the capacity
	delay     []DelayRecord // len is the capacity
	nUndo     int
	nDelay    int
	maxOcc    int
	undoMade  uint64
	delayMade uint64
	coalesced uint64

	trc   obs.Tracer // nil unless tracing; every use must be nil-guarded
	track obs.TrackID
}

// NewRecoveryTable returns a table with the given total record capacity.
func NewRecoveryTable(capacity int) *RecoveryTable {
	if capacity <= 0 {
		panic("persist: recovery table capacity must be positive")
	}
	rt := &RecoveryTable{
		undo:  make([]UndoRecord, capacity),
		delay: make([]DelayRecord, capacity),
	}
	rt.Reset()
	return rt
}

// Reset returns the table to its state after NewRecoveryTable: no record,
// zero statistics and no tracer, in the same record slices.
func (rt *RecoveryTable) Reset() {
	rt.Clear()
	*rt = RecoveryTable{undo: rt.undo, delay: rt.delay}
}

// AttachTracer emits record-creation instants and occupancy counters on
// track (the owning memory controller's track).
func (rt *RecoveryTable) AttachTracer(tr obs.Tracer, track obs.TrackID) {
	rt.trc = tr
	rt.track = track
}

// Occupancy returns the number of live records (undo + delay).
func (rt *RecoveryTable) Occupancy() int { return rt.nUndo + rt.nDelay }

// MaxOccupancy returns the high-water mark of Occupancy, the quantity
// plotted in Figure 12.
func (rt *RecoveryTable) MaxOccupancy() int { return rt.maxOcc }

// Full reports whether no new record can be allocated.
func (rt *RecoveryTable) Full() bool { return rt.Occupancy() >= len(rt.undo) }

// UndosCreated and DelaysCreated report allocation counts (totalUndo in
// Table VI).
func (rt *RecoveryTable) UndosCreated() uint64  { return rt.undoMade }
func (rt *RecoveryTable) DelaysCreated() uint64 { return rt.delayMade }

// DelaysCoalesced reports delay-record writes absorbed by an existing record.
func (rt *RecoveryTable) DelaysCoalesced() uint64 { return rt.coalesced }

// findUndo returns the index of line l's undo record, or -1.
func (rt *RecoveryTable) findUndo(l mem.Line) int {
	for i := range rt.undo[:rt.nUndo] {
		if rt.undo[i].Line == l {
			return i
		}
	}
	return -1
}

// findDelay returns the index of epoch e's delay record for line l, or -1.
func (rt *RecoveryTable) findDelay(l mem.Line, e EpochID) int {
	for i := range rt.delay[:rt.nDelay] {
		if d := &rt.delay[i]; d.Line == l && d.Epoch == e {
			return i
		}
	}
	return -1
}

// Undo returns a copy of the undo record for line l, if present.
func (rt *RecoveryTable) Undo(l mem.Line) (UndoRecord, bool) {
	if i := rt.findUndo(l); i >= 0 {
		return rt.undo[i], true
	}
	return UndoRecord{}, false
}

// CreateUndo allocates an undo record storing safe as the pre-speculation
// value of line l on behalf of epoch e. It reports false when the table is
// full (the controller NACKs the flush). Calling it when a record already
// exists for l is a controller bug and panics.
func (rt *RecoveryTable) CreateUndo(l mem.Line, safe mem.Token, e EpochID) bool {
	if rt.findUndo(l) >= 0 {
		panic("persist: undo record already exists for line")
	}
	if rt.Full() {
		return false
	}
	rt.undo[rt.nUndo] = UndoRecord{Line: l, Safe: safe, Creator: e}
	rt.nUndo++
	rt.undoMade++
	rt.bumpOcc()
	if rt.trc != nil {
		rt.trc.Instant(rt.track, "undo create")
		rt.trc.Counter(rt.track, "rt", int64(rt.Occupancy()))
	}
	return true
}

// UpdateUndo overwrites the safe value of the undo record for line l. This
// is the Table I action for a safe flush (or a committing delay record) that
// finds an undo record: memory already holds a newer speculative value, so
// the incoming value becomes the recorded safe state instead.
func (rt *RecoveryTable) UpdateUndo(l mem.Line, safe mem.Token) {
	i := rt.findUndo(l)
	if i < 0 {
		panic("persist: UpdateUndo without a record")
	}
	rt.undo[i].Safe = safe
}

// CreateDelay records an early write that must wait for its epoch to commit.
// Writes to the same line from the same epoch coalesce in place. It reports
// false when a new record is needed but the table is full.
func (rt *RecoveryTable) CreateDelay(l mem.Line, tok mem.Token, e EpochID) bool {
	if i := rt.findDelay(l, e); i >= 0 {
		rt.delay[i].Token = tok
		rt.coalesced++
		return true
	}
	if rt.Full() {
		return false
	}
	rt.delay[rt.nDelay] = DelayRecord{Line: l, Token: tok, Epoch: e}
	rt.nDelay++
	rt.delayMade++
	rt.bumpOcc()
	if rt.trc != nil {
		rt.trc.Instant(rt.track, "delay create")
		rt.trc.Counter(rt.track, "rt", int64(rt.Occupancy()))
	}
	return true
}

// HasDelay reports whether epoch e already holds a delay record for line l.
func (rt *RecoveryTable) HasDelay(l mem.Line, e EpochID) bool { return rt.findDelay(l, e) >= 0 }

// Commit removes all records owned by epoch e: undo records created by e are
// deleted (their speculative writes are now safe), and e's delay records are
// removed and copied to dst in arrival order, so the controller can process
// them as if the flushes had just arrived (§V-C). dst must hold the table's
// capacity; Commit returns the number of records copied. The records left
// behind keep their arrival order, and the freed slots are zeroed, so dead
// records never reach a checkpoint image.
func (rt *RecoveryTable) Commit(e EpochID, dst []DelayRecord) int {
	kept := 0
	for _, u := range rt.undo[:rt.nUndo] {
		if u.Creator != e {
			rt.undo[kept] = u
			kept++
		}
	}
	clear(rt.undo[kept:rt.nUndo])
	rt.nUndo = kept
	kept, n := 0, 0
	for _, d := range rt.delay[:rt.nDelay] {
		if d.Epoch == e {
			dst[n] = d
			n++
		} else {
			rt.delay[kept] = d
			kept++
		}
	}
	clear(rt.delay[kept:rt.nDelay])
	rt.nDelay = kept
	if rt.trc != nil {
		rt.trc.Counter(rt.track, "rt", int64(rt.Occupancy()))
	}
	return n
}

// UndoRecords returns a copy of the live undo records in ascending line
// order, so crash replay is deterministic; the crash handler writes their
// safe values back to NVM (§V-E). Delay records play no role in a crash.
func (rt *RecoveryTable) UndoRecords() []UndoRecord {
	out := slices.Clone(rt.undo[:rt.nUndo])
	slices.SortFunc(out, func(a, b UndoRecord) int { return cmp.Compare(a.Line, b.Line) })
	return out
}

// Clear drops every record, as after a post-crash restart; the table's
// statistics stand.
func (rt *RecoveryTable) Clear() {
	clear(rt.undo)
	clear(rt.delay)
	rt.nUndo, rt.nDelay = 0, 0
}

// Check reports the first broken table invariant: occupancy outside the
// capacity, two undo records for one line, or two delay records for one
// line of one epoch. A table decoded from a checkpoint image is checked
// before use.
func (rt *RecoveryTable) Check() error {
	if len(rt.undo) == 0 || len(rt.delay) != len(rt.undo) || rt.nUndo < 0 || rt.nDelay < 0 ||
		rt.nUndo+rt.nDelay > len(rt.undo) {
		return fmt.Errorf("persist: recovery table holds %d undo and %d delay records in %d slots",
			rt.nUndo, rt.nDelay, len(rt.undo))
	}
	for i, u := range rt.undo[:rt.nUndo] {
		if rt.findUndo(u.Line) != i {
			return fmt.Errorf("persist: recovery table holds two undo records for line %d", u.Line)
		}
	}
	for i, d := range rt.delay[:rt.nDelay] {
		if rt.findDelay(d.Line, d.Epoch) != i {
			return fmt.Errorf("persist: recovery table holds two delay records for line %d of epoch %v", d.Line, d.Epoch)
		}
	}
	return nil
}

func (rt *RecoveryTable) bumpOcc() {
	if occ := rt.Occupancy(); occ > rt.maxOcc {
		rt.maxOcc = occ
	}
}
