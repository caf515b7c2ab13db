package persist

import (
	"testing"

	m "asap/internal/mem"
)

func TestWBBParkAndFlushRelease(t *testing.T) {
	w := NewWBB(4)
	if !w.Park(10, 3) || !w.Park(11, 5) {
		t.Fatal("parks rejected with space available")
	}
	if !w.Contains(10) || !w.Contains(11) {
		t.Fatal("parked lines missing")
	}
	// Parking an already-parked line keeps the earlier dependency.
	if !w.Park(10, 99) {
		t.Fatal("re-park should succeed")
	}
	if w.Len() != 2 {
		t.Fatal("re-park created a duplicate")
	}
	// Flushing PB entry 3 releases line 10 only.
	rel := w.OnFlush(3)
	if len(rel) != 1 || rel[0] != 10 {
		t.Fatalf("OnFlush(3) released %v", rel)
	}
	if w.Contains(10) || !w.Contains(11) {
		t.Fatal("wrong line released")
	}
	// Flushing a later entry releases everything waiting on earlier ones.
	if rel := w.OnFlush(100); len(rel) != 1 || rel[0] != 11 {
		t.Fatalf("OnFlush(100) released %v", rel)
	}
	if w.Parked() != 2 || w.ReleasedN() != 2 || w.MaxOccupancy() != 2 {
		t.Fatalf("counters parked=%d released=%d max=%d", w.Parked(), w.ReleasedN(), w.MaxOccupancy())
	}
}

func TestWBBCapacity(t *testing.T) {
	w := NewWBB(2)
	w.Park(1, 1)
	w.Park(2, 1)
	if w.Park(3, 1) {
		t.Fatal("full buffer accepted a park")
	}
	// A full buffer still accepts re-parks of held lines.
	if !w.Park(1, 9) {
		t.Fatal("re-park rejected")
	}
}

func TestWBBReleaseIf(t *testing.T) {
	w := NewWBB(8)
	for l := uint64(1); l <= 6; l++ {
		w.Park(m.Line(l), l)
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
