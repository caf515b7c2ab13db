package persist

import (
	"fmt"

	"asap/internal/mem"
	"asap/internal/obs"
)

// WBB is the write-back buffer of §V-F (borrowed from StrandWeaver [17]):
// when a cache line is evicted from the private caches while writes to it
// are still queued in the persist buffer, the eviction parks here instead
// of propagating, so a later coherence request is still forwarded to the
// owning core and the cross-thread dependency is not lost. The line leaves
// the buffer once the persist buffer no longer holds a write to it.
//
// The buffer is a fixed slice of capacity line slots, the first n of them
// parked in arrival order. Lookups scan it: the buffer is 16 entries deep,
// and a scan of that many slots costs less than hashing.
type WBB struct {
	lines []mem.Line // len is the capacity
	n     int        // parked lines

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
	w := &WBB{lines: make([]mem.Line, capacity)}
	w.Reset()
	return w
}

// Reset empties the buffer and detaches its tracer, keeping its storage.
func (w *WBB) Reset() {
	clear(w.lines)
	*w = WBB{lines: w.lines}
}

// AttachTracer emits park instants and occupancy counters on track (the
// owning core's track).
func (w *WBB) AttachTracer(tr obs.Tracer, track obs.TrackID) {
	w.trc = tr
	w.track = track
}

// Park holds an evicted line until the persist buffer drains its writes.
// It reports false when the buffer is full (the eviction must then stall,
// which callers model as a delayed retry).
func (w *WBB) Park(line mem.Line) bool {
	if w.Contains(line) {
		return true // already parked
	}
	if w.n >= len(w.lines) {
		return false
	}
	w.lines[w.n] = line
	w.n++
	w.parked++
	if w.n > w.maxOcc {
		w.maxOcc = w.n
	}
	if w.trc != nil {
		w.trc.Instant(w.track, "wbb park")
		w.trc.Counter(w.track, "wbb", int64(w.n))
	}
	return true
}

// Contains reports whether the line is parked.
func (w *WBB) Contains(line mem.Line) bool {
	for _, l := range w.lines[:w.n] {
		if l == line {
			return true
		}
	}
	return false
}

// LineBuffer reports whether a core's persist buffer still holds an
// unpersisted write to a line; model.Model implements it.
type LineBuffer interface {
	PBHasLine(core int, line mem.Line) bool
}

// ReleaseFlushed releases every parked line that core's persist buffer in
// pb no longer holds and returns the count released. The lines still
// parked keep their arrival order.
func (w *WBB) ReleaseFlushed(pb LineBuffer, core int) int {
	kept := 0
	for _, l := range w.lines[:w.n] {
		if pb.PBHasLine(core, l) {
			w.lines[kept] = l
			kept++
		}
	}
	clear(w.lines[kept:w.n])
	n := w.n - kept
	w.n = kept
	w.released += uint64(n)
	if n > 0 && w.trc != nil {
		w.trc.Counter(w.track, "wbb", int64(w.n))
	}
	return n
}

// Check reports the first broken buffer invariant: occupancy outside the
// capacity, or a line parked twice. A buffer decoded from a checkpoint
// image is checked before use.
func (w *WBB) Check() error {
	if len(w.lines) == 0 || w.n < 0 || w.n > len(w.lines) {
		return fmt.Errorf("persist: WBB holds %d lines in %d slots", w.n, len(w.lines))
	}
	for i, l := range w.lines[:w.n] {
		for _, o := range w.lines[i+1 : w.n] {
			if o == l {
				return fmt.Errorf("persist: WBB parks line %d twice", l)
			}
		}
	}
	return nil
}

// Len, MaxOccupancy, Parked and Released report usage.
func (w *WBB) Len() int          { return w.n }
func (w *WBB) MaxOccupancy() int { return w.maxOcc }
func (w *WBB) Parked() uint64    { return w.parked }
func (w *WBB) ReleasedN() uint64 { return w.released }
