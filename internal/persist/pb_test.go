package persist

import (
	"testing"

	"asap/internal/mem"
)

func TestPBEnqueueAndCoalesce(t *testing.T) {
	pb := NewPersistBuffer(4)
	co, ok := pb.Enqueue(1, 10, 1)
	if co || !ok {
		t.Fatal("first enqueue should allocate")
	}
	// Same line, same epoch, still waiting: coalesce.
	co, ok = pb.Enqueue(1, 11, 1)
	if !co || !ok {
		t.Fatal("should coalesce")
	}
	if pb.Len() != 1 || pb.Coalesced() != 1 {
		t.Fatalf("len=%d coalesced=%d", pb.Len(), pb.Coalesced())
	}
	// Same line, later epoch: must NOT coalesce (ordering).
	co, ok = pb.Enqueue(1, 12, 2)
	if co || !ok {
		t.Fatal("cross-epoch coalescing must not happen")
	}
	if pb.Len() != 2 {
		t.Fatal("expected a second entry")
	}
	// And now the epoch-1 entry is shadowed: a new epoch-1 store for the
	// same line must not skip past the epoch-2 entry to coalesce.
	co, _ = pb.Enqueue(1, 13, 1)
	if co {
		t.Fatal("coalescing scanned past a newer epoch's entry for the line")
	}
}

func TestPBInflightNoCoalesce(t *testing.T) {
	pb := NewPersistBuffer(4)
	pb.Enqueue(1, 10, 1)
	e := pb.NextWaiting()
	pb.MarkInflight(e, false)
	co, ok := pb.Enqueue(1, 11, 1)
	if co || !ok {
		t.Fatal("inflight entries must not absorb new writes")
	}
}

func TestPBFullAndAck(t *testing.T) {
	pb := NewPersistBuffer(2)
	pb.Enqueue(1, 10, 1)
	pb.Enqueue(2, 20, 1)
	if _, ok := pb.Enqueue(3, 30, 1); ok {
		t.Fatal("full buffer accepted an entry")
	}
	e := pb.NextWaiting()
	pb.MarkInflight(e, true)
	if pb.Inflight() != 1 {
		t.Fatal("inflight count wrong")
	}
	got, ok := pb.Ack(e.ID)
	if !ok || got.Line != 1 || !got.Early {
		t.Fatalf("ack returned %+v", got)
	}
	if pb.Len() != 1 || pb.Inflight() != 0 {
		t.Fatal("ack did not free the entry")
	}
	if _, ok := pb.Enqueue(3, 30, 1); !ok {
		t.Fatal("freed capacity not usable")
	}
}

func TestPBNack(t *testing.T) {
	pb := NewPersistBuffer(2)
	pb.Enqueue(1, 10, 3)
	e := pb.NextWaiting()
	pb.MarkInflight(e, true)
	n := pb.Nack(e.ID)
	if n == nil || n.State != PBWaiting || !n.Nacked {
		t.Fatalf("nack state wrong: %+v", n)
	}
	// The entry is eligible again, marked for a safe reissue.
	if w := pb.NextWaiting(); w == nil || !w.Nacked {
		t.Fatal("NACKed entry not re-flushable")
	}
}

func TestPBFIFOOrder(t *testing.T) {
	pb := NewPersistBuffer(8)
	for i := 0; i < 5; i++ {
		pb.Enqueue(mem.Line(i), mem.Token(i), 1)
	}
	for i := 0; i < 5; i++ {
		e := pb.NextWaiting()
		if e.Line != mem.Line(i) {
			t.Fatalf("FIFO broken: got line %d, want %d", e.Line, i)
		}
		pb.MarkInflight(e, false)
		pb.Ack(e.ID)
	}
}

func TestPBPredicateSkipsEpochs(t *testing.T) {
	pb := NewPersistBuffer(8)
	pb.Enqueue(1, 10, 1)
	pb.Enqueue(2, 20, 2)
	e := pb.NextWaitingIn(2)
	if e == nil || e.Line != 2 {
		t.Fatal("epoch selection wrong")
	}
	if pb.NextWaitingIn(3) != nil {
		t.Fatal("selected an entry of an epoch with none")
	}
}

func TestPBPendingAndHasLine(t *testing.T) {
	pb := NewPersistBuffer(8)
	pb.Enqueue(1, 10, 1)
	pb.Enqueue(2, 20, 1)
	pb.Enqueue(3, 30, 2)
	if pb.PendingForEpoch(1) != 2 || pb.PendingForEpoch(2) != 1 {
		t.Fatal("PendingForEpoch wrong")
	}
	if !pb.HasLine(2) || pb.HasLine(9) {
		t.Fatal("HasLine wrong")
	}
	if pb.MaxOccupancy() != 3 {
		t.Fatal("MaxOccupancy wrong")
	}
}

func TestEpochTableLifecycle(t *testing.T) {
	et := NewEpochTable(0, 4)
	if et.CurrentTS() != 1 || et.Len() != 1 {
		t.Fatal("fresh table wrong")
	}
	et.Current().Unacked = 2
	e2 := et.Advance()
	e1, ok := et.Get(1)
	if e2.TS != 2 || !ok || !e1.Closed {
		t.Fatal("advance did not close epoch 1")
	}
	if !et.PrevCommitted(1) {
		t.Fatal("epoch 1 has no predecessor")
	}
	if et.PrevCommitted(2) {
		t.Fatal("epoch 2's predecessor is uncommitted")
	}
	ent1, _ := et.Get(1)
	ent1.Unacked = 0
	ent1.Committed = true
	et.Retire(1)
	if _, ok := et.Get(1); ok {
		t.Fatal("retire left the entry")
	}
	if !et.PrevCommitted(2) {
		t.Fatal("retired epochs are committed by definition")
	}
	if et.OldestTS() != 2 {
		t.Fatalf("oldest = %d", et.OldestTS())
	}
}

func TestEpochTableAllCommitted(t *testing.T) {
	et := NewEpochTable(0, 4)
	if !et.AllCommitted() {
		t.Fatal("empty open epoch should not block a dfence")
	}
	et.Current().Unacked = 1
	if et.AllCommitted() {
		t.Fatal("open epoch with writes must block")
	}
	et.Advance() // closes epoch 1
	e1, _ := et.Get(1)
	e1.Unacked = 0
	if et.AllCommitted() {
		t.Fatal("closed uncommitted epoch must block")
	}
	e1.Committed = true
	et.Retire(1)
	if !et.AllCommitted() {
		t.Fatal("all committed now")
	}
}

func TestEpochTableOverflowTolerated(t *testing.T) {
	et := NewEpochTable(0, 2)
	et.Advance()
	if !et.Full() {
		t.Fatal("should be at capacity")
	}
	// Coherence-triggered splits may exceed capacity (see Advance docs).
	et.Advance()
	if et.Len() != 3 {
		t.Fatal("overflow advance failed")
	}
	if et.MaxOccupancy() != 3 {
		t.Fatal("max occupancy should record the overflow")
	}
}

func TestRetireUncommittedPanics(t *testing.T) {
	et := NewEpochTable(0, 4)
	et.Advance()
	defer func() {
		if recover() == nil {
			t.Error("retiring an uncommitted epoch did not panic")
		}
	}()
	et.Retire(1)
}

func TestEpochsIteration(t *testing.T) {
	et := NewEpochTable(0, 8)
	et.Advance()
	et.Advance()
	var seen []uint64
	for ts := et.OldestTS(); ts <= et.CurrentTS(); ts++ {
		if e, ok := et.Get(ts); ok {
			seen = append(seen, e.TS)
		}
	}
	if len(seen) != 3 || seen[0] != 1 || seen[2] != 3 {
		t.Fatalf("iteration wrong: %v", seen)
	}
}
