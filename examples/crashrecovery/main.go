// crashrecovery: a guided walk through ASAP's recovery machinery at the
// lowest level — hand-drive a memory controller through the write-collision
// scenario of Figure 5 (three threads racing on one address), watch the
// undo and delay records evolve per Table I, then crash and observe the
// rollback.
package main

import (
	"fmt"

	"asap/internal/config"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
)

func main() {
	eng := sim.NewEngine()
	cfg := config.Default()
	mc := persist.NewMC(0, eng, cfg, true /* speculative: recovery table */, stats.New())
	mc.Reset(1)           // size the NVM for the one line this walk writes
	mc.Connect(printer{}) // in a machine, the model receives every reply

	line := mem.LineOf(0x1000)
	show := func(step string) {
		var undoVal string
		if u, ok := mc.RT.Undo(line); ok {
			undoVal = fmt.Sprintf("undo(safe=%d, creator=T%d/E%d)", u.Safe, u.Creator.Thread, u.Creator.TS)
		} else {
			undoVal = "no undo record"
		}
		fmt.Printf("%-46s memory=%d  %s  rtOcc=%d\n",
			step, mc.NVM.Peek(line), undoVal, mc.RT.Occupancy())
	}

	fmt.Println("Figure 5 write collision: initially A=0; T1 writes 1, T2 writes 2, T3 writes 3.")
	fmt.Println("Early flushes arrive out of order: A=3 first, then A=2.")
	fmt.Println()

	flush := func(tok mem.Token, thread int, ts uint64, early bool) {
		mc.ReceiveOp(persist.FlushPacket{
			Line: line, Token: tok,
			Epoch: persist.EpochID{Thread: thread, TS: ts},
			Early: early,
		}, uint64(tok)<<8|uint64(thread))
		eng.Run(0)
	}
	commit := func(thread int, ts uint64) {
		mc.CommitOp(persist.EpochID{Thread: thread, TS: ts})
		eng.Run(0)
	}

	// T1's A=1 persisted safely first (its epoch was already safe).
	flush(1, 1, 1, false)
	show("safe flush A=1 (T1):")

	// T3's A=3 arrives early: undo record created with the old value (1),
	// memory speculatively updated to 3.
	flush(3, 3, 1, true)
	show("early flush A=3 (T3): speculative update")

	// T2's A=2 arrives early after T3's: an undo record already exists,
	// so a delay record holds it (Table I, bottom-right).
	flush(2, 2, 1, true)
	show("early flush A=2 (T2): delayed")

	fmt.Println("\n--- scenario A: T2 then T3 commit (dependency order) ---")
	// T2 commits first (T3's write depends on T2's): the delay record's
	// value becomes the recorded safe value.
	commit(2, 1)
	show("after T2 commit (delay -> undo safe value):")
	commit(3, 1)
	show("after T3 commit (undo deleted):")
	fmt.Printf("final memory value: %d (T3's write, correct)\n", mc.NVM.Peek(line))

	fmt.Println("\n--- scenario B: crash before T3 commits ---")
	// Rebuild the same state on a fresh controller.
	eng2 := sim.NewEngine()
	mc2 := persist.NewMC(0, eng2, cfg, true, stats.New())
	mc2.Reset(1)
	mc2.Connect(quiet{})
	replay := func(tok mem.Token, thread int, ts uint64, early bool) {
		mc2.ReceiveOp(persist.FlushPacket{Line: line, Token: tok,
			Epoch: persist.EpochID{Thread: thread, TS: ts}, Early: early}, 0)
		eng2.Run(0)
	}
	replay(1, 1, 1, false)
	replay(3, 3, 1, true)
	replay(2, 2, 1, true)
	mc2.CommitOp(persist.EpochID{Thread: 2, TS: 1})
	eng2.Run(0)
	fmt.Printf("pre-crash: memory=%d (speculative), undo safe=2 (T2 committed)\n", mc2.NVM.Peek(line))
	mc2.CrashFlush()
	fmt.Printf("post-crash: memory=%d — rolled back to the last committed write (T2's)\n", mc2.NVM.Peek(line))
	fmt.Println("\nThe ADR drain wrote every undo record's safe value back to NVM (§V-E);")
	fmt.Println("delay records were discarded: their epochs never committed.")
}

// printer reports the controller's replies; a flush's reply arg packs the
// token it carried above its thread.
type printer struct{}

func (printer) FlushReply(arg uint64, r persist.FlushResult) {
	fmt.Printf("  -> flush A=%d from T%d: %s\n", arg>>8, arg&0xFF, r) //asaplint:ignore alloccheck demo narration; this example's controller serves a handful of scripted flushes
}

func (printer) CommitAck(e persist.EpochID) {
	fmt.Printf("  -> commit T%d/E%d acknowledged\n", e.Thread, e.TS) //asaplint:ignore alloccheck demo narration; this example's controller serves a handful of scripted commits
}

// quiet discards the controller's replies.
type quiet struct{}

func (quiet) FlushReply(uint64, persist.FlushResult) {}
func (quiet) CommitAck(persist.EpochID)              {}
