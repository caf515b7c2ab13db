// Package workload builds the traces of Table III. The concurrent
// persistent data structures (CCEH, FAST&FAIR, Dash, the RECIPE indexes and
// the Atlas structures) run their real implementations from package pmds
// and record traces. The four WHISPER applications (Nstore, Echo, Vacation,
// Memcached) are synthetic generators reproducing each application's
// published persistence profile — epoch sizes, fence rates, locking
// discipline and cross-thread sharing — because the original binaries
// cannot run inside this simulator (see DESIGN.md, substitutions).
//
// All workloads are configured update-intensive, as in §VII: "We configure
// all applications to be update-intensive in order to stress PM write
// performance"; key and value sizes vary from 16 B to 128 B.
package workload

import (
	"fmt"

	"asap/internal/trace"
)

// Params configures a workload run.
type Params struct {
	Threads      int
	OpsPerThread int    // structure-level operations per thread
	KeyRange     uint64 // key universe size
	ValueSize    int    // bytes per value
	Seed         uint64
	// Strands annotates each structure-level operation as its own strand
	// (strand persistency): operations on independent keys carry no
	// inter-operation ordering requirement. Only strand-aware models use
	// the annotation; everyone else conservatively ignores it.
	Strands bool
}

// Normalized returns p with the zero-value defaults Generate applies
// filled in (KeyRange 1024, ValueSize 8 — the historical defaults).
// Parameter sets that differ only in elided defaults normalize to the
// same value, which package runspec relies on to give them one hash.
func (p Params) Normalized() Params {
	if p.KeyRange == 0 {
		p.KeyRange = 1024
	}
	if p.ValueSize == 0 {
		p.ValueSize = 8
	}
	return p
}

// Default returns the 4-thread configuration used for Figure 8.
func Default() Params {
	return Params{
		Threads:      4,
		OpsPerThread: 600,
		KeyRange:     4096,
		ValueSize:    64,
		Seed:         1,
	}
}

// Generator builds a compiled trace (trace.Compile) for the given
// parameters.
type Generator func(Params) *trace.Trace

var registry = map[string]Generator{}

// ordered keeps the paper's presentation order (Figure 8, left to right).
var ordered []string

func register(name string, g Generator) {
	if _, dup := registry[name]; dup {
		panic("workload: duplicate registration of " + name)
	}
	registry[name] = g
	ordered = append(ordered, name)
}

// Names lists the registered workloads in presentation order.
func Names() []string {
	out := make([]string, len(ordered))
	copy(out, ordered)
	return out
}

// Known reports whether a workload with this name is registered (asapd
// validates request specs against the registry before running them).
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// Generate builds the named workload's trace, compiled into a flat op
// arena (trace.Compile): the machine replays a single contiguous slab
// instead of one heap object per thread.
//
// Generate is safe for concurrent callers: the registry is immutable
// after package init, and every generator builds a private heap, data
// structure and RNG per call (the harness's parallel engine relies on
// this to generate traces from worker goroutines).
func Generate(name string, p Params) (*trace.Trace, error) {
	g, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	if p.Threads <= 0 || p.OpsPerThread <= 0 {
		return nil, fmt.Errorf("workload: Threads and OpsPerThread must be positive")
	}
	return g(p.Normalized()), nil
}

func init() {
	// WHISPER suite (§VII, Table III).
	register("nstore", genNstore)
	register("echo", genEcho)
	register("vacation", genVacation)
	register("memcached", genMemcached)
	// ATLAS data structures.
	registerPMDS("atlas_heap", 1, driveAtlasHeap)
	registerPMDS("atlas_queue", 1, driveAtlasQueue)
	registerPMDS("atlas_skiplist", 1, driveAtlasSkiplist)
	// Concurrent persistent data structures.
	registerPMDS("cceh", 1, driveCCEH)
	registerPMDS("fast_fair", 1, driveFastFair)
	registerPMDS("dash_lh", 1, driveDashLH)
	registerPMDS("dash_eh", 1, driveDashEH)
	// RECIPE.
	registerPMDS("p_art", 8, drivePART) // radix nodes are large
	registerPMDS("p_clht", 1, drivePCLHT)
	registerPMDS("p_masstree", 1, drivePMasstree)
	// Microbenchmark for Figure 13.
	register("bandwidth", genBandwidth)
}
