package persist

import (
	"fmt"
	"math/rand/v2"
	"slices"
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
					step = fmt.Sprintf("op %d Clear", i)
					got.Clear()
					want.Clear()
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

// TestPersistBufferDifferential drives the value-slab persist buffer and
// the pointer reference with the same random enqueues (coalescing ones
// and ones into a full buffer too), flush picks of either policy, ACKs and
// NACKs, and compares every entry in FIFO order after each step.
func TestPersistBufferDifferential(t *testing.T) {
	for _, capacity := range diffCapacities {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(capacity), 11))
			got, want := NewPersistBuffer(capacity), newRefPersistBuffer(capacity)
			lines := uint64(capacity + 3)
			ts := uint64(1)
			for i := 0; i < 4000; i++ {
				var step string
				switch op := r.IntN(8); {
				case op < 3:
					l, tok := mem.Line(r.Uint64N(lines)), mem.Token(i)
					gc, ga := got.Enqueue(l, tok, ts)
					wc, wa := want.Enqueue(l, tok, ts)
					if gc != wc || ga != wa {
						t.Fatalf("op %d Enqueue(%d) = %v/%v, want %v/%v", i, l, gc, ga, wc, wa)
					}
					step = fmt.Sprintf("op %d Enqueue(%d, ts %d)", i, l, ts)
				case op == 3:
					ts++
					continue
				case op < 6:
					anyEpoch := op == 4
					pick := ts - r.Uint64N(3)
					g := got.NextWaitingIn(pick)
					if anyEpoch {
						g = got.NextWaiting()
					}
					w := want.NextWaitingIn(pick, anyEpoch)
					if (g == nil) != (w == nil) || (g != nil && *g != *w) {
						t.Fatalf("op %d pick (any epoch %v, ts %d) = %+v, want %+v", i, anyEpoch, pick, g, w)
					}
					if g == nil {
						continue
					}
					early := r.IntN(2) == 0
					got.MarkInflight(g, early)
					want.MarkInflight(w, early)
					step = fmt.Sprintf("op %d flush %d", i, g.ID)
				default:
					var ids []uint64
					for _, e := range want.entries {
						if e.State == PBInflight {
							ids = append(ids, e.ID)
						}
					}
					if len(ids) == 0 {
						continue
					}
					id := ids[r.IntN(len(ids))]
					if op == 6 {
						g, gok := got.Ack(id)
						w, wok := want.Ack(id)
						if g != w || gok != wok {
							t.Fatalf("op %d Ack(%d) = %+v/%v, want %+v/%v", i, id, g, gok, w, wok)
						}
						step = fmt.Sprintf("op %d Ack(%d)", i, id)
					} else {
						if g, w := got.Nack(id), want.Nack(id); *g != *w {
							t.Fatalf("op %d Nack(%d) = %+v, want %+v", i, id, g, w)
						}
						step = fmt.Sprintf("op %d Nack(%d)", i, id)
					}
				}
				if err := got.Check(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if got.Len() != len(want.entries) || got.Inflight() != want.inflight || got.Full() != (len(want.entries) >= capacity) ||
					got.Inserted() != want.inserted || got.Coalesced() != want.coalesced || got.MaxOccupancy() != want.maxOcc {
					t.Fatalf("%s: counters differ from the reference", step)
				}
				for j, e := range got.Entries() {
					if e != *want.entries[j] {
						t.Fatalf("%s: entry %d is %+v, want %+v", step, j, e, *want.entries[j])
					}
				}
				for l := mem.Line(0); l < mem.Line(lines); l++ {
					if got.HasLine(l) != slices.ContainsFunc(want.entries, func(e *PBEntry) bool { return e.Line == l }) {
						t.Fatalf("%s: HasLine(%d) = %v", step, l, got.HasLine(l))
					}
				}
			}
		})
	}
}

// TestEpochTableDifferential drives the value ring and the pointer
// reference with the same random advances (past nominal capacity, so the
// ring grows), dependency edges, ACK accounting, commits and retirements,
// and compares every tracked entry and query after each step.
func TestEpochTableDifferential(t *testing.T) {
	for _, capacity := range diffCapacities {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(capacity), 13))
			got, want := NewEpochTable(0, capacity), newRefEpochTable(capacity)
			grew := false
			for i := 0; i < 4000; i++ {
				var step string
				// Bursts of advances without retirement push the window
				// past the ring; retirement runs in timestamp order.
				switch op := r.IntN(10); {
				case op < 4:
					g, w := got.Advance(), want.Advance()
					if g.TS != w.TS {
						t.Fatalf("op %d Advance = %d, want %d", i, g.TS, w.TS)
					}
					step = fmt.Sprintf("op %d Advance to %d", i, g.TS)
				case op < 6:
					ts := want.oldest + r.Uint64N(want.current-want.oldest+1)
					g, gok := got.Get(ts)
					w, wok := want.Get(ts)
					if gok != wok {
						t.Fatalf("op %d Get(%d) = %v, want %v", i, ts, gok, wok)
					}
					if !gok {
						continue
					}
					src := EpochID{Thread: 1, TS: uint64(i)}
					g.Deps, w.Deps = append(g.Deps, src), append(w.Deps, src)
					g.Dependents, w.Dependents = append(g.Dependents, src), append(w.Dependents, src)
					g.Unacked++
					w.Unacked++
					step = fmt.Sprintf("op %d edges on %d", i, ts)
				default:
					ts := want.oldest
					g, _ := got.Get(ts)
					w, _ := want.Get(ts)
					if !w.Closed {
						continue
					}
					g.Committed, w.Committed = true, true
					got.Retire(ts)
					want.Retire(ts)
					step = fmt.Sprintf("op %d Retire(%d)", i, ts)
				}
				grew = grew || len(got.ring) > etRingSize(capacity)
				if err := got.Check(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if got.CurrentTS() != want.current || got.OldestTS() != want.oldest || got.Len() != want.count ||
					got.MaxOccupancy() != want.maxOcc || got.Full() != (want.count >= capacity) ||
					got.AllCommitted() != want.AllCommitted() || got.Current().TS != want.current {
					t.Fatalf("%s: table state differs from the reference", step)
				}
				for ts := want.oldest; ts <= want.current+1; ts++ {
					g, gok := got.Get(ts)
					w, wok := want.Get(ts)
					if gok != wok || got.PrevCommitted(ts) != want.PrevCommitted(ts) {
						t.Fatalf("%s: Get/PrevCommitted(%d) differ", step, ts)
					}
					if gok && fmt.Sprint(*g) != fmt.Sprint(*w) {
						t.Fatalf("%s: entry %d is %+v, want %+v", step, ts, *g, *w)
					}
				}
			}
			if !grew {
				t.Errorf("the ring never grew past its initial %d slots", etRingSize(capacity))
			}
		})
	}
}
