package persist

import (
	"testing"

	m "asap/internal/mem"
)

// heldLines is a LineBuffer holding exactly the lines in its set.
type heldLines map[m.Line]bool

func (h heldLines) PBHasLine(_ int, l m.Line) bool { return h[l] }

func TestWBBParkAndFlushRelease(t *testing.T) {
	w := NewWBB(4)
	if !w.Park(10) || !w.Park(11) {
		t.Fatal("parks rejected with space available")
	}
	if !w.Contains(10) || !w.Contains(11) {
		t.Fatal("parked lines missing")
	}
	// Parking an already-parked line keeps the one slot.
	if !w.Park(10) {
		t.Fatal("re-park should succeed")
	}
	if w.Len() != 2 {
		t.Fatal("re-park created a duplicate")
	}
	// The persist buffer flushed line 10's writes: it alone is released.
	if n := w.ReleaseFlushed(heldLines{11: true}, 0); n != 1 {
		t.Fatalf("ReleaseFlushed released %d lines, want 1", n)
	}
	if w.Contains(10) || !w.Contains(11) {
		t.Fatal("wrong line released")
	}
	// Nothing held any more: everything still parked is released.
	if n := w.ReleaseFlushed(heldLines{}, 0); n != 1 || w.Len() != 0 {
		t.Fatalf("ReleaseFlushed released %d lines, len %d", n, w.Len())
	}
	if w.Parked() != 2 || w.ReleasedN() != 2 || w.MaxOccupancy() != 2 {
		t.Fatalf("counters parked=%d released=%d max=%d", w.Parked(), w.ReleasedN(), w.MaxOccupancy())
	}
}

func TestWBBCapacity(t *testing.T) {
	w := NewWBB(2)
	w.Park(1)
	w.Park(2)
	if w.Park(3) {
		t.Fatal("full buffer accepted a park")
	}
	// A full buffer still accepts re-parks of held lines.
	if !w.Park(1) {
		t.Fatal("re-park rejected")
	}
}

func TestWBBReleaseIf(t *testing.T) {
	w := NewWBB(8)
	for l := uint64(1); l <= 6; l++ {
		w.Park(m.Line(l))
	}
	n := w.ReleaseFlushed(oddLines{}, 0)
	if n != 3 || w.Len() != 3 {
		t.Fatalf("released %d, len %d", n, w.Len())
	}
	for l := uint64(1); l <= 6; l++ {
		if w.Contains(m.Line(l)) != (l%2 == 1) {
			t.Fatalf("line %d presence wrong", l)
		}
	}
}

// oddLines is a LineBuffer still holding every odd line.
type oddLines struct{}

func (oddLines) PBHasLine(_ int, l m.Line) bool { return uint64(l)%2 == 1 }
