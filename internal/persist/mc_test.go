package persist

import (
	"testing"

	"asap/internal/config"
	"asap/internal/mem"
	"asap/internal/sim"
	"asap/internal/stats"
)

func newTestMC(spec bool) (*MC, *sim.Engine) {
	eng := sim.NewEngine()
	cfg := config.Default()
	mc := NewMC(0, eng, cfg, spec, stats.New())
	mc.Reset(testLines)
	connect(mc)
	return mc, eng
}

// testLines sizes the test controllers' NVM: more lines than any test
// writes.
const testLines = 16

// replies records controller replies: flush results and commit ACKs.
type replies struct {
	res  []FlushResult
	acks []EpochID
}

func (r *replies) FlushReply(_ uint64, res FlushResult) { r.res = append(r.res, res) }
func (r *replies) CommitAck(e EpochID)                  { r.acks = append(r.acks, e) }

// connect makes a fresh recorder the controller's replier.
func connect(mc *MC) *replies {
	r := &replies{}
	mc.Connect(r)
	return r
}

func sendFlush(t *testing.T, mc *MC, eng *sim.Engine, pkt FlushPacket) FlushResult {
	t.Helper()
	r := connect(mc)
	mc.ReceiveOp(pkt, 0)
	eng.Run(0)
	if len(r.res) != 1 {
		t.Fatalf("controller sent %d replies, want 1", len(r.res))
	}
	return r.res[0]
}

func TestMCSafeFlushPersists(t *testing.T) {
	mc, eng := newTestMC(true)
	if r := sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 42, Epoch: e(0, 1)}); r != FlushAck {
		t.Fatalf("got %v", r)
	}
	if mc.NVM.Peek(5) != 42 {
		t.Fatal("safe flush did not reach media")
	}
	if !mc.Idle() {
		t.Fatal("controller should be idle")
	}
}

func TestMCEarlyFlushCreatesUndo(t *testing.T) {
	mc, eng := newTestMC(true)
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 1, Epoch: e(0, 1)})              // safe: memory=1
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 2, Epoch: e(0, 2), Early: true}) // speculative
	if mc.NVM.Peek(5) != 2 {
		t.Fatal("speculative update missing")
	}
	u, ok := mc.RT.Undo(5)
	if !ok || u.Safe != 1 || u.Creator != e(0, 2) {
		t.Fatalf("undo wrong: %+v", u)
	}
	// Crash now: memory must roll back to 1.
	mc.CrashFlush()
	if mc.NVM.Peek(5) != 1 {
		t.Fatalf("crash rollback failed: %d", mc.NVM.Peek(5))
	}
}

func TestMCSafeFlushWithUndoSuppressed(t *testing.T) {
	mc, eng := newTestMC(true)
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 3, Epoch: e(1, 1), Early: true})
	// A late safe flush (older value) must not clobber the newer
	// speculative value; it becomes the recorded safe state.
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 1, Epoch: e(0, 1)})
	if mc.NVM.Peek(5) != 3 {
		t.Fatal("newer speculative value clobbered")
	}
	if u, _ := mc.RT.Undo(5); u.Safe != 1 {
		t.Fatal("safe value not recorded")
	}
	if mc.Stats().Get("mcWritesSuppressed") != 1 {
		t.Fatal("suppression not counted")
	}
}

func TestMCCommitProcessesDelays(t *testing.T) {
	mc, eng := newTestMC(true)
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 3, Epoch: e(1, 1), Early: true})
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 2, Epoch: e(2, 1), Early: true}) // delayed

	// Commit the delaying epoch first: delay -> undo safe value.
	r := connect(mc)
	mc.CommitOp(e(2, 1))
	eng.Run(0)
	if len(r.acks) != 1 || r.acks[0] != e(2, 1) {
		t.Fatal("commit not acknowledged")
	}
	if u, _ := mc.RT.Undo(5); u.Safe != 2 {
		t.Fatal("delay did not update the undo record")
	}
	// Commit the undo creator: record deleted, memory keeps 3.
	mc.CommitOp(e(1, 1))
	eng.Run(0)
	if _, ok := mc.RT.Undo(5); ok {
		t.Fatal("undo should be gone")
	}
	if mc.NVM.Peek(5) != 3 {
		t.Fatal("memory lost the newest value")
	}
}

func TestMCDelayWithoutUndoPersistsOnCommit(t *testing.T) {
	mc, eng := newTestMC(true)
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 3, Epoch: e(1, 1), Early: true})
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 4, Epoch: e(2, 1), Early: true}) // delayed
	mc.CommitOp(e(1, 1))                                                               // undo deleted
	eng.Run(0)
	mc.CommitOp(e(2, 1)) // delay now persists to media
	eng.Run(0)
	if mc.NVM.Peek(5) != 4 {
		t.Fatalf("delayed write lost: %d", mc.NVM.Peek(5))
	}
}

func TestMCNackWhenRTFull(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config.Default()
	cfg.RTEntries = 2
	mc := NewMC(0, eng, cfg, true, stats.New())
	mc.Reset(testLines)
	sendFlush(t, mc, eng, FlushPacket{Line: 1, Token: 1, Epoch: e(0, 2), Early: true})
	sendFlush(t, mc, eng, FlushPacket{Line: 2, Token: 2, Epoch: e(0, 3), Early: true})
	if r := sendFlush(t, mc, eng, FlushPacket{Line: 3, Token: 3, Epoch: e(0, 4), Early: true}); r != FlushNack {
		t.Fatalf("expected NACK, got %v", r)
	}
	if !mc.Bloom.MaybeContains(3) {
		t.Fatal("NACKed line not in the Bloom filter")
	}
	// Safe flushes never allocate RT space and must still succeed.
	if r := sendFlush(t, mc, eng, FlushPacket{Line: 3, Token: 3, Epoch: e(0, 4)}); r != FlushAck {
		t.Fatalf("safe flush NACKed: %v", r)
	}
}

func TestMCPlainControllerIgnoresSpeculation(t *testing.T) {
	mc, eng := newTestMC(false)
	if mc.RT != nil || mc.Bloom != nil {
		t.Fatal("plain controller should have no RT")
	}
	// Even packets marked early are plain writes on a non-speculative MC.
	sendFlush(t, mc, eng, FlushPacket{Line: 9, Token: 7, Epoch: e(0, 1), Early: true})
	if mc.NVM.Peek(9) != 7 {
		t.Fatal("write lost")
	}
}

func TestMCWPQBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config.Default()
	cfg.WPQEntries = 2
	mc := NewMC(0, eng, cfg, false, stats.New())
	mc.Reset(testLines)
	r := connect(mc)
	for i := 0; i < 8; i++ {
		mc.ReceiveOp(FlushPacket{Line: mem.Line(100 + i), Token: mem.Token(i + 1), Epoch: e(0, 1)}, uint64(i))
	}
	eng.Run(0)
	if len(r.res) != 8 {
		t.Fatalf("only %d/8 flushes acknowledged", len(r.res))
	}
	if mc.Stats().Get("mcWpqFullStalls") == 0 {
		t.Fatal("expected WPQ backpressure with a 2-entry queue")
	}
	for i := 0; i < 8; i++ {
		if mc.NVM.Peek(mem.Line(100+i)) != mem.Token(i+1) {
			t.Fatalf("write %d lost", i)
		}
	}
}

func TestMCUndoReadUsesWPQAndXPBuffer(t *testing.T) {
	mc, eng := newTestMC(true)
	// Prime: a safe write parks in the WPQ briefly; an immediate early
	// write to the same line must read the pending value, not media.
	mc.ReceiveOp(FlushPacket{Line: 4, Token: 10, Epoch: e(0, 1)}, 0)
	mc.ReceiveOp(FlushPacket{Line: 4, Token: 11, Epoch: e(0, 2), Early: true}, 1)
	eng.Run(0)
	if u, ok := mc.RT.Undo(4); !ok || u.Safe != 10 {
		t.Fatalf("undo should hold the WPQ value 10: %+v", u)
	}
	if mc.Stats().Get("mcUndoMediaReads") != 0 {
		t.Fatal("undo read should have hit the WPQ, not media")
	}
}

func TestMCCrashDiscardsDelays(t *testing.T) {
	mc, eng := newTestMC(true)
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 3, Epoch: e(1, 1), Early: true})
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 9, Epoch: e(2, 1), Early: true}) // delayed
	mc.CrashFlush()
	// Undo restores 0 (pre-speculation); the delayed 9 must be gone.
	if got := mc.NVM.Peek(5); got != 0 {
		t.Fatalf("post-crash value %d, want 0", got)
	}
	if mc.RT.Occupancy() != 0 {
		t.Fatal("RT not reset after crash")
	}
}

// TestMCSameEpochSafeAfterEarly is a regression test: an epoch's early flush
// creates an undo record; a *later* write of the same epoch issues safe
// (the epoch became safe mid-flight). The newer value must reach memory, not
// be stashed in the undo record (which is deleted at commit). Found by the
// crash-campaign checker.
func TestMCSameEpochSafeAfterEarly(t *testing.T) {
	mc, eng := newTestMC(true)
	sendFlush(t, mc, eng, FlushPacket{Line: 8, Token: 100, Epoch: e(0, 5), Early: true})
	sendFlush(t, mc, eng, FlushPacket{Line: 8, Token: 101, Epoch: e(0, 5)}) // safe, same epoch
	mc.CommitOp(e(0, 5))
	eng.Run(0)
	if got := mc.NVM.Peek(8); got != 101 {
		t.Fatalf("memory = %d, want the epoch's newest write 101", got)
	}
}

// TestMCStaleDelayReplay is a regression test for the delay-replay hazard:
// epoch F's write is delayed behind E's undo record; E commits; a *newer*
// write of F then speculatively updates memory. F's commit must not replay
// the stale delayed value over the newer one. Found by the crash-campaign
// checker on FAST&FAIR's shift-heavy inserts.
func TestMCStaleDelayReplay(t *testing.T) {
	mc, eng := newTestMC(true)
	E, F := e(0, 1), e(0, 2)
	sendFlush(t, mc, eng, FlushPacket{Line: 8, Token: 10, Epoch: E, Early: true}) // undo(E), mem=10
	sendFlush(t, mc, eng, FlushPacket{Line: 8, Token: 20, Epoch: F, Early: true}) // delayed behind undo(E)
	mc.CommitOp(E)
	eng.Run(0)
	// F writes the line again: must coalesce into F's delay record, not
	// start a new speculative chain that the stale delay would clobber.
	sendFlush(t, mc, eng, FlushPacket{Line: 8, Token: 30, Epoch: F, Early: true})
	mc.CommitOp(F)
	eng.Run(0)
	if got := mc.NVM.Peek(8); got != 30 {
		t.Fatalf("memory = %d, want F's newest write 30", got)
	}
	if mc.RT.Occupancy() != 0 {
		t.Fatal("records left after both commits")
	}
}
