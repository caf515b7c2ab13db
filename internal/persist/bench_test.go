package persist

import (
	"testing"

	"asap/internal/config"
	"asap/internal/mem"
	"asap/internal/sim"
	"asap/internal/stats"
)

// BenchmarkPBFlushCycle measures the persist buffer's steady-state write
// lifecycle: enqueue, pick for flushing, mark inflight, ACK-remove. The
// entry free list makes the cycle allocation-free; benchdiff gates that.
func BenchmarkPBFlushCycle(b *testing.B) {
	pb := NewPersistBuffer(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := pb.Enqueue(mem.Line(i%64), mem.Token(i), uint64(i)); !ok {
			b.Fatal("enqueue rejected")
		}
		e := pb.NextWaiting()
		pb.MarkInflight(e, i%2 == 0)
		if _, ok := pb.Ack(e.ID); !ok {
			b.Fatal("ack failed")
		}
	}
}

// benchReplier counts controller replies without allocating per flush.
type benchReplier struct {
	acks, nacks, commits int
}

func (r *benchReplier) CommitAck(EpochID) { r.commits++ }

func (r *benchReplier) FlushReply(arg uint64, res FlushResult) {
	if res == FlushAck {
		r.acks++
	} else {
		r.nacks++
	}
}

// BenchmarkMCFlushCommit measures the speculative controller's full early
// flush + epoch commit protocol: undo-record creation (with its WPQ/XPBuf
// read), speculative WPQ insert, drain to media, then the commit that
// deletes the record — the complete §V-A/§V-C round trip for one write.
func BenchmarkMCFlushCommit(b *testing.B) {
	eng := sim.NewEngine()
	mc := NewMC(0, eng, config.Default(), true, stats.New())
	mc.Reset(128)
	mc.Register()
	r := &benchReplier{}
	mc.Connect(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep := EpochID{Thread: 0, TS: uint64(i + 1)}
		mc.ReceiveOp(FlushPacket{Line: mem.Line(i % 128), Token: mem.Token(i), Epoch: ep, Early: true}, uint64(i))
		mc.CommitOp(ep)
		eng.Run(0)
	}
	if r.acks+r.nacks != b.N {
		b.Fatalf("replies %d+%d, want %d", r.acks, r.nacks, b.N)
	}
}
