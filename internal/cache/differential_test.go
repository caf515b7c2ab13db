package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"asap/internal/config"
	"asap/internal/mem"
)

// broadcastHierarchy is the pre-optimization reference: the same
// L1/L2/LLC/directory model, but every write invalidates every other
// core's private caches (a broadcast) and private evictions never trim
// the directory's sharer vector. The sharer-directed Hierarchy must be
// observationally identical — the sharer vector it consults is always a
// superset of the true holders, so directing invalidations at it can
// never miss a copy the broadcast would have caught.
type broadcastHierarchy struct {
	cfg config.Config
	l1  []*SetAssoc
	l2  []*SetAssoc
	llc *SetAssoc
	dir *Directory

	evScratch []mem.Line
}

func newBroadcastHierarchy(cfg config.Config) *broadcastHierarchy {
	h := &broadcastHierarchy{
		cfg: cfg,
		l1:  make([]*SetAssoc, cfg.Cores),
		l2:  make([]*SetAssoc, cfg.Cores),
		llc: NewSetAssoc(cfg.LLCSize, cfg.LLCWays),
		dir: NewDirectory(0),
	}
	for i := 0; i < cfg.Cores; i++ {
		h.l1[i] = NewSetAssoc(cfg.L1Size, cfg.L1Ways)
		h.l2[i] = NewSetAssoc(cfg.L2Size, cfg.L2Ways)
	}
	return h
}

func (h *broadcastHierarchy) Access(core int, l mem.Line, write, acquire bool, ts uint64) AccessResult {
	var res AccessResult
	var cf *Conflict
	var remote bool
	h.evScratch = h.evScratch[:0]
	if write {
		cf, remote, _ = h.dir.Write(core, l, ts) // mask ignored: broadcast below
	} else {
		cf, remote = h.dir.Read(core, l, acquire)
	}
	if cf != nil {
		res.Conflicted, res.Conflict = true, *cf
	}

	switch {
	case h.l1[core].Lookup(l) && !remote:
		res.Latency = h.cfg.L1Hit
		res.Level = LevelL1
	case h.l2[core].Lookup(l) && !remote:
		res.Latency = h.cfg.L1Hit + h.cfg.L2Hit
		res.Level = LevelL2
		h.fillPrivate(core, l)
	case remote:
		res.Latency = h.cfg.RemoteXfer
		res.Level = LevelRemote
		h.fillPrivate(core, l)
		h.fillLLC(l)
	case h.llc.Lookup(l):
		res.Latency = h.cfg.LLCHit
		res.Level = LevelLLC
		h.fillPrivate(core, l)
	default:
		res.Latency = h.cfg.LLCHit + h.cfg.NVMRead
		res.Level = LevelMem
		h.fillPrivate(core, l)
		h.fillLLC(l)
	}
	res.LLCEvicted = h.evScratch

	if write {
		for c := 0; c < h.cfg.Cores; c++ {
			if c != core {
				h.l1[c].Invalidate(l)
				h.l2[c].Invalidate(l)
			}
		}
	}
	return res
}

func (h *broadcastHierarchy) fillPrivate(core int, l mem.Line) {
	h.l1[core].Insert(l)
	h.l2[core].Insert(l)
}

func (h *broadcastHierarchy) fillLLC(l mem.Line) {
	if v, had := h.llc.Insert(l); had {
		h.evScratch = append(h.evScratch, v)
	}
}

// conflictCopy is a value snapshot of a result's conflict (a stale
// Conflict behind Conflicted == false reads as no conflict).
type conflictCopy struct {
	ok bool
	cf Conflict
}

func snapConflict(conflicted bool, cf Conflict) conflictCopy {
	if !conflicted {
		return conflictCopy{}
	}
	return conflictCopy{ok: true, cf: cf}
}

// TestDifferentialCoherence replays random multi-core access streams
// through the broadcast reference and the sharer-directed hierarchy,
// asserting identical latencies, levels, conflicts, LLC evictions, and
// final per-cache contents. Geometry is shrunk so private and shared
// evictions are frequent and the line universe is small enough for heavy
// cross-core sharing.
func TestDifferentialCoherence(t *testing.T) {
	cfg := config.Default()
	cfg.Cores = 4
	cfg.L1Size = 64 * 8 // 4 sets x 2 ways
	cfg.L1Ways = 2
	cfg.L2Size = 64 * 16 // 4 sets x 4 ways
	cfg.L2Ways = 4
	cfg.LLCSize = 64 * 64 // 8 sets x 8 ways
	cfg.LLCWays = 8

	const lines = 96   // > LLC capacity, dense sharing
	const steps = 8000 // enough to churn every set repeatedly

	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := newBroadcastHierarchy(cfg)
		opt := NewHierarchy(cfg, 0)
		ts := uint64(1)

		for i := 0; i < steps; i++ {
			core := rng.Intn(cfg.Cores)
			l := mem.Line(rng.Intn(lines))
			write := rng.Intn(100) < 40
			acquire := !write && rng.Intn(100) < 5
			if rng.Intn(100) < 3 {
				ts++ // occasional epoch advance so WriterTS varies
			}

			a := ref.Access(core, l, write, acquire, ts)
			// Snapshot before the second hierarchy overwrites nothing —
			// each hierarchy has its own scratch, but copy for clarity.
			aEv := append([]mem.Line(nil), a.LLCEvicted...)
			aCf := snapConflict(a.Conflicted, a.Conflict)

			b := opt.Access(core, l, write, acquire, ts)

			if a.Latency != b.Latency || a.Level != b.Level {
				t.Fatalf("seed %d step %d (core %d line %d write %v): ref (%v,%s) vs opt (%v,%s)",
					seed, i, core, l, write, a.Latency, a.Level, b.Latency, b.Level)
			}
			bCf := snapConflict(b.Conflicted, b.Conflict)
			if aCf != bCf {
				t.Fatalf("seed %d step %d: conflict mismatch ref %+v vs opt %+v", seed, i, aCf, bCf)
			}
			if len(aEv) != len(b.LLCEvicted) {
				t.Fatalf("seed %d step %d: eviction count %d vs %d", seed, i, len(aEv), len(b.LLCEvicted))
			}
			for j := range aEv {
				if aEv[j] != b.LLCEvicted[j] {
					t.Fatalf("seed %d step %d: eviction %d is %d vs %d", seed, i, j, aEv[j], b.LLCEvicted[j])
				}
			}
		}

		// Final state: every cache level holds exactly the same lines.
		for l := mem.Line(0); l < lines; l++ {
			for c := 0; c < cfg.Cores; c++ {
				if ref.l1[c].Contains(l) != opt.L1(c).Contains(l) {
					t.Fatalf("seed %d: L1[%d] diverges on line %d", seed, c, l)
				}
				if ref.l2[c].Contains(l) != opt.L2(c).Contains(l) {
					t.Fatalf("seed %d: L2[%d] diverges on line %d", seed, c, l)
				}
			}
			if ref.llc.Contains(l) != opt.LLC().Contains(l) {
				t.Fatalf("seed %d: LLC diverges on line %d", seed, l)
			}
		}

		// The point of the exercise: the directed hierarchy must not have
		// probed more caches than the broadcast (it should probe far fewer,
		// but the directional claim is what correctness rests on).
		if opt.Directory().Invalidations() > ref.dir.Invalidations() {
			t.Fatalf("seed %d: directed invalidations (%d) exceed broadcast accounting (%d)",
				seed, opt.Directory().Invalidations(), ref.dir.Invalidations())
		}
	}
}

// TestDifferentialSharerSuperset checks the invariant the directed scheme
// rests on: at every step, any core holding a line in L1 or L2 appears in
// the directory's sharer vector.
func TestDifferentialSharerSuperset(t *testing.T) {
	cfg := config.Default()
	cfg.Cores = 4
	cfg.L1Size = 64 * 8
	cfg.L1Ways = 2
	cfg.L2Size = 64 * 16
	cfg.L2Ways = 4
	cfg.LLCSize = 64 * 64
	cfg.LLCWays = 8

	const lines = 64
	rng := rand.New(rand.NewSource(7))
	h := NewHierarchy(cfg, 0)
	for i := 0; i < 4000; i++ {
		core := rng.Intn(cfg.Cores)
		l := mem.Line(rng.Intn(lines))
		h.Access(core, l, rng.Intn(100) < 40, false, 1)

		if i%97 != 0 {
			continue // full sweep is O(lines*cores); sample it
		}
		for ll := mem.Line(0); ll < lines; ll++ {
			e, ok := h.Directory().Peek(ll)
			for c := 0; c < cfg.Cores; c++ {
				holds := h.L1(c).Contains(ll) || h.L2(c).Contains(ll)
				if holds && (!ok || e.Sharers&(1<<uint(c)) == 0) {
					t.Fatalf("step %d: core %d holds line %d but is not a sharer", i, c, ll)
				}
			}
		}
	}
}

// refSetAssoc is the dense reference cache: every set's lines in a slice
// ordered most- to least-recently used, with the classic move-to-front
// LRU. The sparse SetAssoc must make the same decisions whatever its
// storage layout.
type refSetAssoc struct {
	sets                    [][]mem.Line
	ways                    int
	hits, misses, evictions uint64
}

func newRefSetAssoc(sets, ways int) *refSetAssoc {
	return &refSetAssoc{sets: make([][]mem.Line, sets), ways: ways}
}

func (r *refSetAssoc) set(l mem.Line) *[]mem.Line { return &r.sets[uint64(l)%uint64(len(r.sets))] }

// find returns l's position in its set, or -1.
func (r *refSetAssoc) find(l mem.Line) int {
	for i, x := range *r.set(l) {
		if x == l {
			return i
		}
	}
	return -1
}

func (r *refSetAssoc) toFront(l mem.Line, i int) {
	s := *r.set(l)
	copy(s[1:i+1], s[:i])
	s[0] = l
}

func (r *refSetAssoc) Lookup(l mem.Line) bool {
	if i := r.find(l); i >= 0 {
		r.toFront(l, i)
		r.hits++
		return true
	}
	r.misses++
	return false
}

func (r *refSetAssoc) Insert(l mem.Line) (mem.Line, bool) {
	if i := r.find(l); i >= 0 {
		r.toFront(l, i)
		return 0, false
	}
	s := r.set(l)
	if len(*s) < r.ways {
		*s = append(*s, l)
		r.toFront(l, len(*s)-1)
		return 0, false
	}
	v := (*s)[r.ways-1]
	(*s)[r.ways-1] = l
	r.toFront(l, r.ways-1)
	r.evictions++
	return v, true
}

func (r *refSetAssoc) Invalidate(l mem.Line) {
	if i := r.find(l); i >= 0 {
		s := r.set(l)
		*s = append((*s)[:i], (*s)[i+1:]...)
	}
}

// TestDifferentialSparseSetAssoc replays random streams of lookups,
// inserts and invalidations through the sparse SetAssoc and the dense
// reference, for a power-of-two and a non-power-of-two set count, with a
// reservation of zero, one too small and the exact count of sets the
// stream reaches, once across a recency-stamp wrap, and once in a cache
// Reset after another stream. Every outcome, counter and final content
// must match; with the exact reservation the slab is allocated once and
// never moves.
func TestDifferentialSparseSetAssoc(t *testing.T) {
	const lines, steps = 400, 6000
	for _, g := range []struct{ sets, ways int }{{64, 4}, {48, 2}} {
		rng := rand.New(rand.NewSource(int64(g.sets)))
		stream := make([]mem.Line, steps)
		for i := range stream {
			stream[i] = mem.Line(rng.Intn(lines)) * 3 // every third line: sets reached unevenly
		}
		count := NewSetCounter(g.sets*g.ways*mem.LineSize, g.ways)
		for _, l := range stream {
			count.Add(l)
		}
		exact := count.Count()
		for _, c := range []struct {
			name         string
			reserve      int
			wrap, reused bool
		}{
			{"none", 0, false, false}, {"too small", exact / 3, false, false}, {"exact", exact, false, false},
			{"exact across a stamp wrap", exact, true, false}, {"exact after a reset", exact, false, true},
		} {
			what := fmt.Sprintf("%d sets/%s", g.sets, c.name)
			sa := NewSetAssoc(g.sets*g.ways*mem.LineSize, g.ways)
			if c.reused {
				// An earlier run on other lines leaves storage, index
				// entries and invalidated ways behind.
				sa.Reset(exact)
				for i, l := range stream {
					sa.Insert(l + 1)
					if i%5 == 0 {
						sa.Invalidate(stream[i/2] + 1)
					}
				}
			}
			sa.Reset(c.reserve)
			if c.wrap {
				sa.tick = ^uint32(0) - steps/20
			}
			ref := newRefSetAssoc(g.sets, g.ways)
			var slab *slot
			for i, l := range stream {
				switch op := rng.Intn(10); {
				case op < 4:
					if got, want := sa.Lookup(l), ref.Lookup(l); got != want {
						t.Fatalf("%s step %d: Lookup(%d) = %v, reference %v", what, i, l, got, want)
					}
				case op < 8:
					var v, rv mem.Line
					var had, rhad bool
					if op < 6 || ref.find(l) >= 0 {
						v, had = sa.Insert(l)
					} else {
						v, had = sa.InsertAbsent(l)
					}
					rv, rhad = ref.Insert(l)
					if v != rv || had != rhad {
						t.Fatalf("%s step %d: Insert(%d) evicts (%d, %v), reference (%d, %v)", what, i, l, v, had, rv, rhad)
					}
				default:
					sa.Invalidate(l)
					ref.Invalidate(l)
				}
				if c.reserve == exact && len(sa.slots) > 0 {
					if slab == nil {
						slab = &sa.slots[:1][0]
					} else if &sa.slots[:1][0] != slab {
						t.Fatalf("%s step %d: the slab moved under an exact reservation", what, i)
					}
				}
			}
			if sa.hits != ref.hits || sa.misses != ref.misses || sa.evictions != ref.evictions {
				t.Fatalf("%s: counters %d/%d/%d, reference %d/%d/%d", what,
					sa.hits, sa.misses, sa.evictions, ref.hits, ref.misses, ref.evictions)
			}
			for l := mem.Line(0); l < 3*lines; l++ {
				if sa.Contains(l) != (ref.find(l) >= 0) {
					t.Fatalf("%s: final contents diverge on line %d", what, l)
				}
			}
			if err := sa.Check(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if c.reserve == exact && sa.Used() != exact {
				t.Fatalf("%s: reached %d sets, the stream's count is %d", what, sa.Used(), exact)
			}
			if c.wrap && sa.tick > steps {
				t.Fatalf("%s: the stamp never wrapped (tick %d)", what, sa.tick)
			}
		}
	}
}

// TestSparseProbesDoNotAllocate pins that probes of sets no insert has
// reached — in a cache with no storage yet, and beside a reached set —
// miss without allocating storage.
func TestSparseProbesDoNotAllocate(t *testing.T) {
	c := NewSetAssoc(64*64*8, 8)
	probe := func() {
		for l := mem.Line(1); l < 64; l++ {
			c.Lookup(l)
			c.Contains(l)
			c.Invalidate(l)
		}
	}
	if n := testing.AllocsPerRun(10, probe); n != 0 || c.index != nil {
		t.Fatalf("probes of an empty cache allocate %v times (index allocated: %v)", n, c.index != nil)
	}
	c.Insert(0)
	if n := testing.AllocsPerRun(10, probe); n != 0 || c.Used() != 1 {
		t.Fatalf("probes of untouched sets allocate %v times and reach %d sets", n, c.Used())
	}
}
