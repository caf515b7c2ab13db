package cache

import (
	"math/rand"
	"testing"

	"asap/internal/config"
	"asap/internal/mem"
)

// benchStep packs one precomputed access — line (low 32 bits), core
// (bits 32..39) and the write flag (bit 40) — into a single word so the
// timed loop's per-step overhead is one load and two shifts, keeping the
// measurement on the memory system rather than the RNG or the pattern
// array.
type benchStep uint64

func (s benchStep) line() mem.Line { return mem.Line(uint32(s)) }
func (s benchStep) core() int      { return int(s>>32) & 0xFF }
func (s benchStep) write() bool    { return s>>40&1 != 0 }

// sharingMix builds a write-heavy multi-core stream over a small shared
// working set: the cores take turns round-robin — the machine's event
// loop steps them the same way — and every core hammers the same `shared`
// hot lines (writeFrac of accesses are writes, so the directory is
// constantly transferring ownership and invalidating sharers) with
// excursions into a per-core private region that forces fills and
// evictions without coherence traffic.
func sharingMix(cores, steps, shared, private int, writeFrac float64) []benchStep {
	rng := rand.New(rand.NewSource(42))
	mix := make([]benchStep, steps)
	for i := range mix {
		core := i % cores
		s := benchStep(core) << 32
		if rng.Float64() < writeFrac {
			s |= 1 << 40
		}
		if rng.Intn(4) == 0 { // 25%: this core's private lines
			s |= benchStep(shared + core*private + rng.Intn(private))
		} else { // 75%: contended shared lines
			s |= benchStep(rng.Intn(shared))
		}
		mix[i] = s
	}
	return mix
}

// BenchmarkHierarchyAccess measures the full per-access path — directory
// update, sharer-directed invalidation, three cache levels, LLC fill and
// eviction collection — on a write-heavy stream with dense cross-core
// sharing. This is the single hottest call in the machine's op loop;
// benchdiff gates it at zero allocations per access.
func BenchmarkHierarchyAccess(b *testing.B) {
	cfg := config.Default()
	h := NewHierarchy(cfg, 0)
	mix := sharingMix(cfg.Cores, 1<<14, 64, 256, 0.6)
	// One warm-up pass: directory growth and scratch-slice sizing happen
	// here so the timed loop measures the steady state the machine sees.
	for i, s := range mix {
		h.Access(s.core(), s.line(), s.write(), false, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := mix[i&(len(mix)-1)]
		res := h.Access(s.core(), s.line(), s.write(), false, uint64(i))
		_ = res.Latency
	}
}

// BenchmarkDirectoryAccess isolates the open-addressed directory: a mixed
// Read/Write stream across a line universe that loads the table as fully
// as a presized run's does, so the measured cost includes realistic probe
// distances rather than a half-empty table's best case.
func BenchmarkDirectoryAccess(b *testing.B) {
	const cores = 8
	const lines = 1 << 15
	d := NewDirectory(lines)
	// Populate up front, so the timed loop probes a loaded table.
	for l := 0; l < lines; l++ {
		d.Read(l%cores, mem.Line(l), false)
	}
	mix := sharingMix(cores, 1<<14, lines/4, lines-lines/4, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := mix[i&(len(mix)-1)]
		if s.write() {
			_, _, _ = d.Write(s.core(), s.line(), uint64(i))
		} else {
			_, _ = d.Read(s.core(), s.line(), false)
		}
	}
}

// BenchmarkSetAssocLookup isolates one cache level: Lookup on a warm
// set-associative array with a mix of hits (resident lines) and misses,
// exercising the masked set index and packed slot scan.
func BenchmarkSetAssocLookup(b *testing.B) {
	cfg := config.Default()
	c := NewSetAssoc(cfg.LLCSize, cfg.LLCWays)
	resident := cfg.LLCSize / 64
	for l := 0; l < resident; l++ {
		c.Insert(mem.Line(l))
	}
	rng := rand.New(rand.NewSource(7))
	probes := make([]mem.Line, 1<<14)
	for i := range probes {
		if rng.Intn(4) == 0 { // 25% misses
			probes[i] = mem.Line(resident + rng.Intn(resident))
		} else {
			probes[i] = mem.Line(rng.Intn(resident))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Lookup(probes[i&(len(probes)-1)])
	}
}
