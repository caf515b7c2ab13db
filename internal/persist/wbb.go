package persist

import (
	"sort"

	"asap/internal/mem"
	"asap/internal/obs"
)

// WBB is the write-back buffer of §V-F (borrowed from StrandWeaver [17]):
// when a cache line is evicted from the private caches while writes to it
// are still queued in the persist buffer, the eviction parks here instead
// of propagating, so a later coherence request is still forwarded to the
// owning core and the cross-thread dependency is not lost. The line leaves
// the buffer once the persist buffer flushes the corresponding entry.
//
// Each entry records the persist-buffer entry ID it waits on ("WBB records
// the tail index of the persist buffer when the cache initiates the
// eviction").
type WBB struct {
	capacity int
	entries  map[mem.Line]uint64 // line -> PB entry ID it waits for

	parked   uint64
	released uint64
	maxOcc   int

	trc   obs.Tracer // nil unless tracing; every use must be nil-guarded
	track obs.TrackID
}

// NewWBB returns a buffer holding capacity parked evictions.
func NewWBB(capacity int) *WBB {
	if capacity <= 0 {
		panic("persist: WBB capacity must be positive")
	}
	return &WBB{capacity: capacity, entries: make(map[mem.Line]uint64)}
}

// AttachTracer emits park instants and occupancy counters on track (the
// owning core's track).
func (w *WBB) AttachTracer(tr obs.Tracer, track obs.TrackID) {
	w.trc = tr
	w.track = track
}

// Park holds an evicted line until PB entry id is flushed. It reports false
// when the buffer is full (the eviction must then stall, which callers
// model as a delayed retry).
func (w *WBB) Park(line mem.Line, pbEntryID uint64) bool {
	if _, ok := w.entries[line]; ok {
		return true // already parked; keep the earlier dependency
	}
	if len(w.entries) >= w.capacity {
		return false
	}
	w.entries[line] = pbEntryID //asaplint:ignore alloccheck map bounded by WBB capacity (checked above); deleted slots recycle
	w.parked++
	if len(w.entries) > w.maxOcc {
		w.maxOcc = len(w.entries)
	}
	if w.trc != nil {
		w.trc.Instant(w.track, "wbb park")
		w.trc.Counter(w.track, "wbb", int64(len(w.entries)))
	}
	return true
}

// Contains reports whether the line is parked.
func (w *WBB) Contains(line mem.Line) bool {
	_, ok := w.entries[line]
	return ok
}

// sortedParked returns the parked lines in ascending order, so release
// processing is deterministic across runs.
func (w *WBB) sortedParked() []mem.Line {
	lines := make([]mem.Line, 0, len(w.entries))
	for l := range w.entries {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines
}

// OnFlush releases every line waiting on PB entry id (or any earlier
// entry), returning the released lines in ascending line order.
func (w *WBB) OnFlush(pbEntryID uint64) []mem.Line {
	var out []mem.Line
	for _, l := range w.sortedParked() {
		if w.entries[l] <= pbEntryID {
			out = append(out, l)
			delete(w.entries, l)
			w.released++
		}
	}
	return out
}

// LineBuffer reports whether a core's persist buffer still holds an
// unpersisted write to a line; model.Model implements it.
type LineBuffer interface {
	PBHasLine(core int, line mem.Line) bool
}

// ReleaseFlushed releases every parked line that core's persist buffer in
// pb no longer holds (used by machines that poll the persist buffer state
// instead of receiving per-entry flush notifications) and returns the
// count released.
func (w *WBB) ReleaseFlushed(pb LineBuffer, core int) int {
	n := 0
	for _, l := range w.sortedParked() {
		if !pb.PBHasLine(core, l) {
			delete(w.entries, l)
			w.released++
			n++
		}
	}
	if n > 0 && w.trc != nil {
		w.trc.Counter(w.track, "wbb", int64(len(w.entries)))
	}
	return n
}

// Len, MaxOccupancy, Parked and Released report usage.
func (w *WBB) Len() int          { return len(w.entries) }
func (w *WBB) MaxOccupancy() int { return w.maxOcc }
func (w *WBB) Parked() uint64    { return w.parked }
func (w *WBB) ReleasedN() uint64 { return w.released }
