package machine

import (
	"slices"
	"testing"

	"asap/internal/persist"
)

func TestLedgerWriteOrder(t *testing.T) {
	lg := NewLedger(0)
	e1 := persist.EpochID{Thread: 0, TS: 1}
	e2 := persist.EpochID{Thread: 1, TS: 3}
	lg.RecordWrite(e1, 10, 100)
	lg.RecordWrite(e2, 10, 101)
	lg.RecordWrite(e1, 20, 102)

	ws := lg.Writes(10)
	if len(ws) != 2 || ws[0].Token != 100 || ws[1].Token != 101 {
		t.Fatalf("line order wrong: %+v", ws)
	}
	if p, ok := lg.TokenPos(101); !ok || p != 1 {
		t.Fatalf("TokenPos(101) = %d,%v", p, ok)
	}
	if l, ok := lg.TokenLine(102); !ok || l != 20 {
		t.Fatalf("TokenLine(102) = %d,%v", l, ok)
	}
	if rec, ok := lg.TokenRec(100); !ok || rec.Epoch != e1 {
		t.Fatalf("TokenRec(100) = %+v,%v", rec, ok)
	}
	if len(lg.EpochWrites(e1)) != 2 || len(lg.EpochWrites(e2)) != 1 {
		t.Fatal("epoch attribution wrong")
	}
}

func TestLedgerDepsAndCommits(t *testing.T) {
	lg := NewLedger(0)
	src := persist.EpochID{Thread: 0, TS: 5}
	dst := persist.EpochID{Thread: 1, TS: 2}
	lg.DepCreated(src, dst)
	if lg.NumDeps() != 1 {
		t.Fatal("dep not counted")
	}
	lg.DepCreated(dst, src) // an edge into another epoch stays off dst's chain
	src2 := persist.EpochID{Thread: 2, TS: 1}
	lg.DepCreated(src2, dst)
	if lg.NumDeps() != 3 {
		t.Fatalf("NumDeps = %d, want 3", lg.NumDeps())
	}
	head := persist.EpochID{Thread: 9, TS: 9}
	preds := lg.AppendPredecessors([]persist.EpochID{head}, dst)
	if !slices.Equal(preds, []persist.EpochID{head, src, src2}) {
		t.Fatalf("AppendPredecessors = %v, want the sources after the given prefix in creation order", preds)
	}
	if preds := lg.AppendPredecessors(nil, persist.EpochID{Thread: 7, TS: 1}); len(preds) != 0 {
		t.Fatalf("AppendPredecessors of an unknown epoch = %v", preds)
	}
	if lg.IsCommitted(src) {
		t.Fatal("uncommitted epoch reported committed")
	}
	lg.EpochCommitted(src)
	lg.EpochCommitted(src) // idempotent
	if !lg.IsCommitted(src) || lg.NumCommitted() != 1 {
		t.Fatal("commit tracking wrong")
	}
	n := 0
	lg.CommittedEpochs(func(persist.EpochID) { n++ })
	if n != 1 {
		t.Fatal("CommittedEpochs iteration wrong")
	}
}
