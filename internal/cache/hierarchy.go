package cache

import (
	"errors"
	"fmt"
	"math/bits"

	"asap/internal/config"
	"asap/internal/mem"
	"asap/internal/sim"
)

// Level identifies where in the hierarchy an access was satisfied. It is a
// compact enum on the per-access fast path; String() keeps the old
// lowercase names for traces, stats and test output.
type Level uint8

const (
	LevelL1     Level = iota // private L1 hit
	LevelL2                  // private L2 hit
	LevelRemote              // cache-to-cache transfer from the owning core
	LevelLLC                 // shared LLC hit
	LevelMem                 // fill from persistent memory
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "l1"
	case LevelL2:
		return "l2"
	case LevelRemote:
		return "remote"
	case LevelLLC:
		return "llc"
	case LevelMem:
		return "mem"
	}
	return "level?"
}

// AccessResult summarizes one core access through the hierarchy.
//
// The result is per-hierarchy scratch storage that the next Access
// overwrites, eviction lists included: callers must consume it before
// touching the hierarchy again, which keeps the per-access path free of
// heap allocation.
type AccessResult struct {
	Latency sim.Cycles
	// Level the access was satisfied at.
	Level Level
	// Conflicted is true when the line was last modified by another core;
	// Conflict then describes the conflict.
	Conflicted bool
	Conflict   Conflict
	// LLCEvicted lists lines evicted from the LLC by this access's fills.
	// Persistent-memory lines are dropped rather than written back — the
	// persist path owns durability (§V-A) — but the machine consults the
	// MC Bloom filter before letting a NACK-pending line go (§V-F).
	LLCEvicted []mem.Line
	// LLCEvictedWriter[i] is the directory's last writer of LLCEvicted[i]
	// (-1 if the line was never written). Captured during the eviction so
	// the machine's write-back-buffer decision needs no second directory
	// probe per evicted line.
	LLCEvictedWriter []int
}

// Hierarchy is the private-L1/private-L2/shared-LLC cache model with a
// directory for coherence, per Table II.
type Hierarchy struct {
	cfg config.Config
	// l1 and l2 hold the per-core private caches by value: a probe
	// indexes straight into the backing array instead of chasing a
	// pointer per cache, and the per-core state lands contiguously in
	// memory.
	l1  []SetAssoc
	l2  []SetAssoc
	llc *SetAssoc
	dir *Directory

	// res backs the AccessResult returned by Access, reused (eviction
	// lists included) across accesses so the steady-state access path
	// neither allocates nor copies the result struct.
	res AccessResult
}

// NewHierarchy builds the hierarchy for cfg.Cores cores, with a directory
// sized for lines distinct lines (NewDirectory). It allocates no cache way
// state: each cache allocates its slab on its first insert, unless Reset
// sizes it first.
func NewHierarchy(cfg config.Config, lines int) *Hierarchy {
	h := &Hierarchy{
		cfg: cfg,
		l1:  make([]SetAssoc, cfg.Cores),
		l2:  make([]SetAssoc, cfg.Cores),
		llc: NewSetAssoc(cfg.LLCSize, cfg.LLCWays),
		dir: &Directory{},
	}
	for i := 0; i < cfg.Cores; i++ {
		h.l1[i] = *NewSetAssoc(cfg.L1Size, cfg.L1Ways)
		h.l2[i] = *NewSetAssoc(cfg.L2Size, cfg.L2Ways)
	}
	h.Reset(lines, nil, nil, 0)
	return h
}

// Reset empties the hierarchy for a run that touches lines distinct lines
// and sizes each cache's slab for the sets that run reaches: l1[i] and
// l2[i] in core i's private caches (cores past the slices reach none), llc
// in the shared cache. Every line a thread touches is filled into its
// core's L1 and L2 on the first access, and every distinct line into the
// LLC, so counting the distinct sets the trace's lines map to is exact.
// The directory and the caches keep the storage of their last run where
// it is large enough (Directory, SetAssoc.Reset).
func (h *Hierarchy) Reset(lines int, l1, l2 []int, llc int) {
	h.dir.reset(lines)
	for i := range h.l1 {
		n1, n2 := 0, 0
		if i < len(l1) {
			n1, n2 = l1[i], l2[i]
		}
		h.l1[i].Reset(n1)
		h.l2[i].Reset(n2)
	}
	h.llc.Reset(llc)
	h.res = AccessResult{}
}

// Check reports whether the hierarchy's state is one Access can run on
// under cfg, the config its machine was built from: one L1 and one L2 per
// core, every cache with cfg's geometry and consistent storage
// (SetAssoc.Check), and a probeable directory (Directory.Check).
func (h *Hierarchy) Check(cfg config.Config) error {
	if len(h.l1) != cfg.Cores || len(h.l2) != cfg.Cores {
		return fmt.Errorf("cache: %d L1 and %d L2 caches for %d cores", len(h.l1), len(h.l2), cfg.Cores)
	}
	check := func(name string, c *SetAssoc, size, ways int) error {
		if c.geom != newGeom(size, ways) || c.ways != ways {
			return fmt.Errorf("cache: %s has %d sets of %d ways, the config %d of %d", name, c.sets, c.ways, newGeom(size, ways).sets, ways)
		}
		if err := c.Check(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	for i := range h.l1 {
		if err := errors.Join(
			check(fmt.Sprintf("L1[%d]", i), &h.l1[i], cfg.L1Size, cfg.L1Ways),
			check(fmt.Sprintf("L2[%d]", i), &h.l2[i], cfg.L2Size, cfg.L2Ways)); err != nil {
			return err
		}
	}
	return errors.Join(check("LLC", h.llc, cfg.LLCSize, cfg.LLCWays), h.dir.Check())
}

// Directory exposes the coherence directory (the machine marks releases and
// inspects last-writer state through it).
func (h *Hierarchy) Directory() *Directory { return h.dir }

// Access performs a load (write=false) or store (write=true) by core to
// line l, executed within the core's persistency epoch ts. acquire marks
// the access as an acquire operation for release-persistency dependency
// detection.
//
// The returned pointer aliases per-hierarchy scratch (like the eviction
// slices inside it) and is valid only until the next Access.
//
//asap:hot per-memory-op: every simulated load/store funnels through here
func (h *Hierarchy) Access(core int, l mem.Line, write, acquire bool, ts uint64) *AccessResult {
	res := &h.res
	var cf *Conflict
	var remote bool
	var invalidate uint64
	l1, l2 := &h.l1[core], &h.l2[core]
	res.LLCEvicted = res.LLCEvicted[:0]
	res.LLCEvictedWriter = res.LLCEvictedWriter[:0]
	if write {
		cf, remote, invalidate = h.dir.Write(core, l, ts)
	} else {
		cf, remote = h.dir.Read(core, l, acquire)
	}
	if res.Conflicted = cf != nil; res.Conflicted {
		res.Conflict = *cf
	}

	switch {
	case !remote && l1.Lookup(l):
		res.Latency = h.cfg.L1Hit
		res.Level = LevelL1
	case !remote && l2.Lookup(l):
		res.Latency = h.cfg.L1Hit + h.cfg.L2Hit
		res.Level = LevelL2
		// The L2 Lookup above already refreshed the line's recency, so
		// only the L1 fill remains. (Re-inserting into L2 would be a
		// second touch of the same way — a no-op for eviction order.)
		h.fillL1(core, l)
	case remote:
		// Cache-to-cache transfer from the modifying core.
		res.Latency = h.cfg.RemoteXfer
		res.Level = LevelRemote
		h.fillPrivate(core, l)
		h.fillLLC(l)
	case h.llc.Lookup(l):
		res.Latency = h.cfg.LLCHit
		res.Level = LevelLLC
		h.fillPrivate(core, l)
	default:
		// Fill from persistent memory.
		res.Latency = h.cfg.LLCHit + h.cfg.NVMRead
		res.Level = LevelMem
		h.fillPrivate(core, l)
		h.fillLLC(l)
	}
	if write && invalidate != 0 {
		// Sharer-directed invalidation: the directory's sharer vector
		// names exactly the cores that can hold a copy, so only their
		// private caches are probed — not every core's L1+L2 as a
		// broadcast would. The vector is a superset of the true holders
		// (it is trimmed on private evictions in fillPrivate), so a stale
		// bit costs one no-op probe pair, never a missed invalidation.
		for m := invalidate; m != 0; m &= m - 1 {
			c := bits.TrailingZeros64(m)
			h.l1[c].Invalidate(l)
			h.l2[c].Invalidate(l)
		}
	}
	return res
}

// fillPrivate installs the line in the core's L1 and L2. Private evictions
// of persistent lines are silent: their durable copies travel through the
// persist buffers, and a write-back buffer (WBB) holds lines whose persists
// are still queued (§V-F), which we model as a free drop here with the WBB
// occupancy accounted by the machine. Evictions do, however, trim the
// directory's sharer vector: once neither private level holds the line,
// the core can no longer be a sharer, which keeps write invalidations
// directed at caches that actually have the line.
// fillPrivate's callers guarantee the line is in neither private level:
// the L1/L2 lookups missed on the LLC and memory paths, and on the remote
// path the owning core's store invalidated every other private copy
// before its directory state could mark the line remote. InsertAbsent
// therefore skips the per-way hit scan.
func (h *Hierarchy) fillPrivate(core int, l mem.Line) {
	l1, l2 := &h.l1[core], &h.l2[core]
	v1, had1 := l1.InsertAbsent(l)
	v2, had2 := l2.InsertAbsent(l)
	// A victim cannot remain in the cache that just evicted it, so each
	// victim is checked only against the OTHER private level.
	if had1 && !l2.Contains(v1) {
		h.dir.ClearSharer(core, v1)
	}
	if had2 && v2 != v1 && !l1.Contains(v2) {
		h.dir.ClearSharer(core, v2)
	}
}

// fillL1 installs the line in L1 alone — the L2-hit path, where L2
// already holds it. The same sharer-vector trim applies to the victim.
func (h *Hierarchy) fillL1(core int, l mem.Line) {
	v1, had1 := h.l1[core].InsertAbsent(l)
	if had1 && !h.l2[core].Contains(v1) {
		h.dir.ClearSharer(core, v1)
	}
}

// fillLLC installs the line in the shared LLC, collecting evictions (and
// their directory last-writer) into the result's reused eviction lists.
func (h *Hierarchy) fillLLC(l mem.Line) {
	if v, had := h.llc.Insert(l); had {
		writer := -1
		if e, ok := h.dir.Peek(v); ok {
			writer = int(e.LastWriter)
		}
		res := &h.res
		//asaplint:ignore alloccheck scratch slices reach steady-state capacity after the first few evictions
		res.LLCEvicted = append(res.LLCEvicted, v)
		res.LLCEvictedWriter = append(res.LLCEvictedWriter, writer) //asaplint:ignore alloccheck same scratch contract as the line above
	}
}

// L1 and L2 expose per-core caches; LLC the shared cache (tests, stats).
func (h *Hierarchy) L1(core int) *SetAssoc { return &h.l1[core] }
func (h *Hierarchy) L2(core int) *SetAssoc { return &h.l2[core] }
func (h *Hierarchy) LLC() *SetAssoc        { return h.llc }
