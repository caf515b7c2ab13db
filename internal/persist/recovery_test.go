package persist

import (
	"testing"
	"testing/quick"

	"asap/internal/mem"
)

func e(th int, ts uint64) EpochID { return EpochID{Thread: th, TS: ts} }

// commitAll commits epoch ep and returns the delay records it released.
func commitAll(rt *RecoveryTable, ep EpochID) []DelayRecord {
	buf := make([]DelayRecord, len(rt.undo))
	return buf[:rt.Commit(ep, buf)]
}

// TestTableISemantics walks every cell of Table I through the recovery
// table directly.
func TestTableISemantics(t *testing.T) {
	rt := NewRecoveryTable(8)
	line := mem.Line(7)

	// Early flush, no undo record: create one.
	if !rt.CreateUndo(line, 0 /* old memory value */, e(3, 1)) {
		t.Fatal("CreateUndo failed with space available")
	}
	u, ok := rt.Undo(line)
	if !ok || u.Safe != 0 || u.Creator != e(3, 1) {
		t.Fatalf("undo record wrong: %+v", u)
	}

	// Safe flush, undo record present: update the safe value.
	rt.UpdateUndo(line, 1)
	if u, _ := rt.Undo(line); u.Safe != 1 {
		t.Fatal("UpdateUndo did not store the safe value")
	}

	// Early flush, undo record present: delay record.
	if !rt.CreateDelay(line, 2, e(2, 1)) {
		t.Fatal("CreateDelay failed with space available")
	}
	if rt.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2", rt.Occupancy())
	}
}

// TestFigure5Scenario reproduces the paper's write-collision example end to
// end at the record level.
func TestFigure5Scenario(t *testing.T) {
	rt := NewRecoveryTable(8)
	a := mem.Line(1)
	// Memory holds A=0. T3's early A=3 arrives first.
	rt.CreateUndo(a, 0, e(3, 1))
	// T2's early A=2 arrives while the undo exists: delayed.
	rt.CreateDelay(a, 2, e(2, 1))

	// T2 commits first (T3 depends on it): its delay record emerges and,
	// per §V-C, updates the undo record's safe value.
	delays := commitAll(rt, e(2, 1))
	if len(delays) != 1 || delays[0].Token != 2 {
		t.Fatalf("T2 commit returned %v", delays)
	}
	rt.UpdateUndo(a, delays[0].Token)
	if u, _ := rt.Undo(a); u.Safe != 2 {
		t.Fatal("safe value should now be T2's write")
	}

	// Crash here would restore A=2 (T2 committed, T3 not): correct.
	// Instead T3 commits: undo deleted, memory keeps A=3.
	if ds := commitAll(rt, e(3, 1)); len(ds) != 0 {
		t.Fatalf("T3 commit returned stray delays %v", ds)
	}
	if _, ok := rt.Undo(a); ok {
		t.Fatal("undo record should be deleted at creator commit")
	}
	if rt.Occupancy() != 0 {
		t.Fatal("table should be empty")
	}
}

func TestRecoveryTableCapacity(t *testing.T) {
	rt := NewRecoveryTable(2)
	if !rt.CreateUndo(1, 0, e(0, 1)) || !rt.CreateDelay(1, 5, e(1, 1)) {
		t.Fatal("fills rejected")
	}
	if !rt.Full() {
		t.Fatal("should be full")
	}
	if rt.CreateUndo(2, 0, e(0, 1)) {
		t.Fatal("undo accepted when full")
	}
	if rt.CreateDelay(2, 6, e(1, 1)) {
		t.Fatal("delay accepted when full")
	}
	// Coalescing into an existing delay record needs no new entry.
	if !rt.CreateDelay(1, 7, e(1, 1)) {
		t.Fatal("delay coalesce rejected when full")
	}
	if rt.DelaysCoalesced() != 1 {
		t.Fatal("coalesce not counted")
	}
	if rt.MaxOccupancy() != 2 {
		t.Fatalf("max occupancy = %d", rt.MaxOccupancy())
	}
}

func TestDelayOrderPreserved(t *testing.T) {
	rt := NewRecoveryTable(8)
	rt.CreateUndo(9, 0, e(0, 1))
	for i, l := range []mem.Line{3, 9, 5} {
		// line 9 has an undo; others don't need one for this test —
		// we only care about per-epoch delay ordering.
		if !rt.CreateDelay(l, mem.Token(i+1), e(1, 4)) {
			t.Fatal("delay rejected")
		}
	}
	ds := commitAll(rt, e(1, 4))
	if len(ds) != 3 || ds[0].Line != 3 || ds[1].Line != 9 || ds[2].Line != 5 {
		t.Fatalf("delay order lost: %v", ds)
	}
}

func TestUndoRecordsAndReset(t *testing.T) {
	rt := NewRecoveryTable(8)
	rt.CreateUndo(1, 11, e(0, 1))
	rt.CreateUndo(2, 22, e(0, 2))
	recs := rt.UndoRecords()
	if len(recs) != 2 {
		t.Fatalf("got %d undo records", len(recs))
	}
	rt.Clear()
	if rt.Occupancy() != 0 {
		t.Fatal("reset left records")
	}
}

func TestDuplicateUndoPanics(t *testing.T) {
	rt := NewRecoveryTable(8)
	rt.CreateUndo(1, 0, e(0, 1))
	defer func() {
		if recover() == nil {
			t.Error("duplicate CreateUndo did not panic")
		}
	}()
	rt.CreateUndo(1, 0, e(0, 2))
}

// TestRecoveryTableInvariants (property): under random operations the
// occupancy accounting never drifts and capacity is never exceeded.
func TestRecoveryTableInvariants(t *testing.T) {
	type op struct {
		Kind  uint8
		Line  uint8
		Th    uint8
		TS    uint8
		Token uint16
	}
	prop := func(ops []op) bool {
		const capEntries = 6
		rt := NewRecoveryTable(capEntries)
		undoLines := map[mem.Line]bool{}
		for _, o := range ops {
			l := mem.Line(o.Line % 8)
			ep := EpochID{Thread: int(o.Th % 3), TS: uint64(o.TS%4) + 1}
			switch o.Kind % 3 {
			case 0: // early flush path
				if undoLines[l] {
					rt.CreateDelay(l, mem.Token(o.Token), ep)
				} else if rt.CreateUndo(l, mem.Token(o.Token), ep) {
					undoLines[l] = true
				}
			case 1: // safe flush with undo
				if undoLines[l] {
					rt.UpdateUndo(l, mem.Token(o.Token))
				}
			case 2: // commit
				commitAll(rt, ep)
				for ln := range undoLines {
					if _, ok := rt.Undo(ln); !ok {
						delete(undoLines, ln)
					}
				}
			}
			if rt.Occupancy() > capEntries {
				return false
			}
			if rt.Occupancy() < 0 {
				return false
			}
		}
		// Committing every possible epoch must empty the table.
		for th := 0; th < 3; th++ {
			for ts := uint64(1); ts <= 4; ts++ {
				commitAll(rt, EpochID{Thread: th, TS: ts})
			}
		}
		return rt.Occupancy() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBloomFilter(t *testing.T) {
	b := NewCountingBloom(512, 3)
	for l := mem.Line(0); l < 50; l++ {
		b.Add(l)
	}
	for l := mem.Line(0); l < 50; l++ {
		if !b.MaybeContains(l) {
			t.Fatalf("false negative for %d", l)
		}
	}
	for l := mem.Line(0); l < 50; l++ {
		b.Remove(l)
	}
	fp := 0
	for l := mem.Line(0); l < 50; l++ {
		if b.MaybeContains(l) {
			fp++
		}
	}
	if fp != 0 {
		t.Fatalf("%d lines still present after removal", fp)
	}
}

// TestBloomNoFalseNegatives (property): any added-but-not-removed line is
// always reported present.
func TestBloomNoFalseNegatives(t *testing.T) {
	prop := func(lines []uint16) bool {
		b := NewCountingBloom(256, 3)
		for _, l := range lines {
			b.Add(mem.Line(l))
		}
		for _, l := range lines {
			if !b.MaybeContains(mem.Line(l)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
