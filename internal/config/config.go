// Package config holds the machine configuration shared by the cache,
// persist and model packages. Defaults reproduce Table II of the ASAP paper
// (4 cores @2 GHz, 2 memory controllers, Optane-like NVM timing).
package config

import (
	"errors"
	"fmt"

	"asap/internal/sim"
)

// Config describes one simulated machine. All latencies are in cycles of the
// 2 GHz core clock (1 ns = 2 cycles).
type Config struct {
	// Topology.
	Cores           int
	MCs             int
	InterleaveBytes uint64 // address interleave granularity across MCs

	// Cache hierarchy (sizes in bytes).
	L1Size, L1Ways   int
	L2Size, L2Ways   int
	LLCSize, LLCWays int

	// Access latencies.
	L1Hit      sim.Cycles // 1 ns
	L2Hit      sim.Cycles // 10 ns
	LLCHit     sim.Cycles
	RemoteXfer sim.Cycles // cache-to-cache transfer
	NVMRead    sim.Cycles // 175 ns
	NVMWrite   sim.Cycles // 90 ns
	// NVMDrainGap is the WPQ→media drain interval per line: the media's
	// write *throughput*, distinct from the 90 ns write latency. Optane
	// DIMMs overlap writes internally (~2.3 GB/s per DIMM [38]), so the
	// per-line service interval is well below the access latency.
	NVMDrainGap sim.Cycles
	// NVMReadGap is the per-line read-throughput interval at the
	// controller. PM read bandwidth is ~3x its write bandwidth (the
	// asymmetry §V-A relies on to make undo-record reads cheap); the
	// controller pipelines reads, so an undo-record read serializes the
	// front-end for this interval, not the full access latency.
	NVMReadGap sim.Cycles
	XPBufHit   sim.Cycles // Optane internal buffer hit
	FlushLat   sim.Cycles // persist buffer -> MC flush, 60 ns
	MsgLat     sim.Cycles // on-chip message (ACK/NACK/commit/CDR)

	// Structure sizes (entries).
	PBEntries  int // persist buffer, per core
	ETEntries  int // epoch table, per core
	RTEntries  int // recovery table, per MC
	WPQEntries int // write pending queue, per MC
	XPBufLines int // XPBuffer lines, per MC

	// Issue limits.
	PBMaxInflight int // outstanding un-ACKed flushes per persist buffer

	// HOPS cross-thread dependency resolution (§VII): poll the global TS
	// register every PollInterval cycles, each access costing PollCost.
	HOPSPollInterval sim.Cycles
	HOPSPollCost     sim.Cycles

	// Base op costs at the core.
	StoreCost sim.Cycles
	LoadCost  sim.Cycles
	FenceCost sim.Cycles // fixed pipeline cost of executing a fence op

	// ASAPNoEager disables eager flushing in the ASAP models (ablation):
	// persist buffers issue only safe flushes, so the recovery tables are
	// never used. Isolates the contribution of speculation vs buffering.
	ASAPNoEager bool
}

// Default returns the Table II configuration.
func Default() Config {
	return Config{
		Cores:           4,
		MCs:             2,
		InterleaveBytes: 256,

		L1Size: 32 << 10, L1Ways: 8,
		L2Size: 2 << 20, L2Ways: 8,
		LLCSize: 16 << 20, LLCWays: 16,

		L1Hit:       sim.NS(1),
		L2Hit:       sim.NS(10),
		LLCHit:      sim.NS(25),
		RemoteXfer:  sim.NS(40),
		NVMRead:     sim.NS(175),
		NVMWrite:    sim.NS(90),
		NVMDrainGap: sim.NS(28), // ~2.3 GB/s per controller
		NVMReadGap:  sim.NS(10), // ~6.4 GB/s per controller
		XPBufHit:    sim.NS(10),
		FlushLat:    sim.NS(60),
		MsgLat:      sim.NS(10), // on-chip ACK/NACK/commit/CDR hop

		PBEntries:  32,
		ETEntries:  32,
		RTEntries:  32,
		WPQEntries: 16,
		XPBufLines: 512, // ~16 KB XPBuffer per DIMM, several DIMMs per MC

		PBMaxInflight: 8,

		HOPSPollInterval: 500,
		HOPSPollCost:     50,

		StoreCost: 1,
		LoadCost:  1,
		FenceCost: 2,
	}
}

// Ceilings on the sizes that drive allocation at machine construction.
// They sit far above every experiment (Table II and the ablation sweeps),
// so a config beyond them is a corrupt or hostile input, not a study.
const (
	// MaxCores is the directory's sharer bitmask width (one uint64).
	MaxCores = 64
	// MaxMCs is the epoch table's early-controller bitmask width.
	MaxMCs = 64

	maxPrivateCacheBytes = 1 << 26 // per-core L1/L2
	maxLLCBytes          = 1 << 30
	maxWays              = 1 << 10
	maxEntries           = 1 << 12 // PB, ET, RT and WPQ entries
	maxXPBufLines        = 1 << 14
)

// Check reports whether the configuration is internally consistent and
// within the ceilings above. machine.New's callers that take a Config from
// outside (RunSpec decoding, checkpoint images) call it to get an error
// instead of a panic. RTEntries is bounded above only: models without a
// recovery table ignore it, and machine.New rejects a non-positive size
// for the speculative ones.
func (c Config) Check() error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf("config: "+format, args...)) }
	if c.Cores < 1 || c.Cores > MaxCores {
		bad("Cores %d outside 1..%d (the directory's sharer bitmask)", c.Cores, MaxCores)
	}
	if c.MCs < 1 || c.MCs > MaxMCs {
		bad("MCs %d outside 1..%d (the epoch table's controller bitmask)", c.MCs, MaxMCs)
	}
	if c.InterleaveBytes == 0 || c.InterleaveBytes%64 != 0 {
		bad("InterleaveBytes %d must be a positive multiple of the line size", c.InterleaveBytes)
	}
	for _, cache := range []struct {
		name      string
		size, max int
		ways      int
	}{
		{"L1", c.L1Size, maxPrivateCacheBytes, c.L1Ways},
		{"L2", c.L2Size, maxPrivateCacheBytes, c.L2Ways},
		{"LLC", c.LLCSize, maxLLCBytes, c.LLCWays},
	} {
		if cache.size < 1 || cache.size > cache.max {
			bad("%sSize %d outside 1..%d bytes", cache.name, cache.size, cache.max)
		}
		if cache.ways < 1 || cache.ways > maxWays {
			bad("%sWays %d outside 1..%d", cache.name, cache.ways, maxWays)
		}
	}
	for _, s := range []struct {
		name string
		n    int
	}{{"PBEntries", c.PBEntries}, {"ETEntries", c.ETEntries}, {"WPQEntries", c.WPQEntries}} {
		if s.n < 1 || s.n > maxEntries {
			bad("%s %d outside 1..%d", s.name, s.n, maxEntries)
		}
	}
	if c.RTEntries > maxEntries {
		bad("RTEntries %d above %d", c.RTEntries, maxEntries)
	}
	if c.XPBufLines < 0 || c.XPBufLines > maxXPBufLines {
		bad("XPBufLines %d outside 0..%d", c.XPBufLines, maxXPBufLines)
	}
	if c.PBMaxInflight < 1 {
		bad("PBMaxInflight %d must be positive", c.PBMaxInflight)
	}
	return errors.Join(errs...)
}

// Validate panics if Check fails. Call it after hand-editing a Config.
func (c Config) Validate() {
	if err := c.Check(); err != nil {
		panic(err.Error())
	}
}
