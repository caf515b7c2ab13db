package persist

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"asap/internal/mem"
)

// diffCapacities are the sizes the differential tests cover: the
// degenerate one- and two-record tables, the WBB's 16 and the paper's
// 32-entry recovery table.
var diffCapacities = []int{1, 2, 16, 32}

// randLines is a LineBuffer holding a random subset of lines, redrawn per
// release so every release frees a different mix.
type randLines map[mem.Line]bool

func (r randLines) PBHasLine(_ int, l mem.Line) bool { return r[l] }

// TestWBBDifferential drives the slot WBB and the map reference with the
// same random parks (fresh and repeated lines, into full buffers too) and
// releases against random persist-buffer contents.
func TestWBBDifferential(t *testing.T) {
	for _, capacity := range diffCapacities {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(capacity), 7))
			got, want := NewWBB(capacity), newRefWBB(capacity)
			lines := mem.Line(2*capacity + 3)
			for i := 0; i < 4000; i++ {
				var step string
				if r.IntN(4) > 0 {
					l := mem.Line(r.Uint64N(uint64(lines)))
					if g, w := got.Park(l), want.Park(l); g != w {
						t.Fatalf("op %d Park(%d) = %v, want %v", i, l, g, w)
					}
					step = fmt.Sprintf("op %d Park(%d)", i, l)
				} else {
					held := randLines{}
					for l := mem.Line(0); l < lines; l++ {
						held[l] = r.IntN(3) == 0
					}
					if g, w := got.ReleaseFlushed(held, 0), want.ReleaseFlushed(held, 0); g != w {
						t.Fatalf("op %d ReleaseFlushed = %d, want %d", i, g, w)
					}
					step = fmt.Sprintf("op %d ReleaseFlushed", i)
				}
				if err := got.Check(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if got.Len() != len(want.entries) || got.MaxOccupancy() != want.maxOcc ||
					got.Parked() != want.parked || got.ReleasedN() != want.released {
					t.Fatalf("%s: len/max/parked/released %d/%d/%d/%d, want %d/%d/%d/%d", step,
						got.Len(), got.MaxOccupancy(), got.Parked(), got.ReleasedN(),
						len(want.entries), want.maxOcc, want.parked, want.released)
				}
				for l := mem.Line(0); l < lines; l++ {
					if got.Contains(l) != want.Contains(l) {
						t.Fatalf("%s: Contains(%d) = %v, want %v", step, l, got.Contains(l), want.Contains(l))
					}
				}
			}
		})
	}
}

// TestRecoveryTableDifferential drives the record-slice table and the map
// reference with the same random undo creations (duplicates included,
// which must panic in both), undo updates, delay creations that coalesce
// or fill the table, commits and resets. Commit must hand back the same
// delay records in the same arrival order, and UndoRecords the same
// records in the same line order.
func TestRecoveryTableDifferential(t *testing.T) {
	for _, capacity := range diffCapacities {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(capacity), 11))
			got, want := NewRecoveryTable(capacity), newRefRecoveryTable(capacity)
			buf := make([]DelayRecord, capacity)
			lines := mem.Line(capacity + 4)
			epoch := func() EpochID { return EpochID{Thread: r.IntN(3), TS: 1 + r.Uint64N(4)} }
			for i := 0; i < 6000; i++ {
				l := mem.Line(r.Uint64N(uint64(lines)))
				tok := mem.Token(i + 1)
				var step string
				switch op := r.IntN(20); {
				case op < 6:
					ep := epoch()
					step = fmt.Sprintf("op %d CreateUndo(%d, %d, %v)", i, l, tok, ep)
					gp, g := panics(func() bool { return got.CreateUndo(l, tok, ep) })
					wp, w := panics(func() bool { return want.CreateUndo(l, tok, ep) })
					if gp != wp || g != w {
						t.Fatalf("%s = %v (panic %v), want %v (panic %v)", step, g, gp, w, wp)
					}
				case op < 9:
					step = fmt.Sprintf("op %d UpdateUndo(%d, %d)", i, l, tok)
					if _, ok := want.Undo(l); ok {
						got.UpdateUndo(l, tok)
						want.UpdateUndo(l, tok)
					}
				case op < 15:
					ep := epoch()
					step = fmt.Sprintf("op %d CreateDelay(%d, %d, %v)", i, l, tok, ep)
					if g, w := got.CreateDelay(l, tok, ep), want.CreateDelay(l, tok, ep); g != w {
						t.Fatalf("%s = %v, want %v", step, g, w)
					}
				case op < 19:
					ep := epoch()
					step = fmt.Sprintf("op %d Commit(%v)", i, ep)
					g := buf[:got.Commit(ep, buf)]
					w := want.Commit(ep)
					if len(g) != len(w) {
						t.Fatalf("%s released %d delay records, want %d", step, len(g), len(w))
					}
					for j := range g {
						if g[j] != *w[j] {
							t.Fatalf("%s: delay record %d is %+v, want %+v", step, j, g[j], *w[j])
						}
					}
				default:
					step = fmt.Sprintf("op %d Reset", i)
					got.Reset()
					want.Reset()
				}
				compareRT(t, step, got, want, lines)
			}
		})
	}
}

// panics runs fn, reporting whether it panicked and otherwise its result.
func panics(fn func() bool) (panicked, v bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return false, fn()
}

// compareRT checks every observable of the table against the reference.
func compareRT(t *testing.T, step string, got *RecoveryTable, want *refRecoveryTable, lines mem.Line) {
	t.Helper()
	if err := got.Check(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if got.Occupancy() != want.Occupancy() || got.MaxOccupancy() != want.maxOcc || got.Full() != want.Full() {
		t.Fatalf("%s: occupancy/max/full %d/%d/%v, want %d/%d/%v", step,
			got.Occupancy(), got.MaxOccupancy(), got.Full(), want.Occupancy(), want.maxOcc, want.Full())
	}
	if got.UndosCreated() != want.undoMade || got.DelaysCreated() != want.delayMade || got.DelaysCoalesced() != want.coalesced {
		t.Fatalf("%s: created undo/delay/coalesced %d/%d/%d, want %d/%d/%d", step,
			got.UndosCreated(), got.DelaysCreated(), got.DelaysCoalesced(), want.undoMade, want.delayMade, want.coalesced)
	}
	for l := mem.Line(0); l < lines; l++ {
		g, gok := got.Undo(l)
		w, wok := want.Undo(l)
		if gok != wok || (gok && g != *w) {
			t.Fatalf("%s: Undo(%d) = %+v %v, want %+v %v", step, l, g, gok, w, wok)
		}
		for th := 0; th < 3; th++ {
			for ts := uint64(1); ts <= 4; ts++ {
				ep := EpochID{Thread: th, TS: ts}
				if got.HasDelay(l, ep) != want.HasDelay(l, ep) {
					t.Fatalf("%s: HasDelay(%d, %v) = %v", step, l, ep, got.HasDelay(l, ep))
				}
			}
		}
	}
	g, w := got.UndoRecords(), want.UndoRecords()
	if len(g) != len(w) {
		t.Fatalf("%s: %d undo records, want %d", step, len(g), len(w))
	}
	for i := range g {
		if g[i] != *w[i] {
			t.Fatalf("%s: undo record %d is %+v, want %+v", step, i, g[i], *w[i])
		}
	}
}
