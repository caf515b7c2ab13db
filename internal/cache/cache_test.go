package cache

import (
	"testing"
	"testing/quick"

	"asap/internal/config"
	"asap/internal/mem"
)

func TestSetAssocLRU(t *testing.T) {
	// 2 sets x 2 ways over 64 B lines: 256 bytes.
	c := NewSetAssoc(256, 2)
	// Lines 0 and 2 map to set 0; 1 and 3 to set 1.
	c.Insert(0)
	c.Insert(2)
	if !c.Contains(0) || !c.Contains(2) {
		t.Fatal("fills lost")
	}
	c.Lookup(0)            // 0 is now MRU; 2 is LRU
	ev, had := c.Insert(4) // set 0 again
	if !had || ev != 2 {
		t.Fatalf("evicted (%d,%v), want (2,true)", ev, had)
	}
	if !c.Contains(0) || !c.Contains(4) {
		t.Fatal("wrong lines evicted")
	}
}

func TestSetAssocInvalidate(t *testing.T) {
	c := NewSetAssoc(256, 2)
	c.Insert(1)
	c.Invalidate(1)
	if c.Contains(1) {
		t.Fatal("invalidate failed")
	}
	c.Invalidate(99) // no-op
}

func TestSetAssocCounters(t *testing.T) {
	c := NewSetAssoc(256, 2)
	c.Lookup(1)
	c.Insert(1)
	c.Lookup(1)
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

// TestSetAssocNeverExceedsCapacity (property): after any access sequence,
// each set holds at most `ways` lines and reinsertion never evicts.
func TestSetAssocNeverExceedsCapacity(t *testing.T) {
	prop := func(lines []uint8) bool {
		c := NewSetAssoc(512, 4) // 2 sets x 4 ways
		for _, l := range lines {
			c.Insert(mem.Line(l % 32))
		}
		// Present lines re-inserted must not evict.
		for _, l := range lines {
			ln := mem.Line(l % 32)
			if c.Contains(ln) {
				if _, had := c.Insert(ln); had {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryWriteConflict(t *testing.T) {
	d := NewDirectory(0)
	if cf, remote, inv := d.Write(0, 7, 5); cf != nil || remote || inv != 0 {
		t.Fatal("first write should not conflict or invalidate")
	}
	cf, remote, inv := d.Write(1, 7, 9)
	if cf == nil || !remote {
		t.Fatal("second writer must see a remote conflict")
	}
	if inv != 1<<0 {
		t.Fatalf("invalidate mask = %b, want core 0 only", inv)
	}
	if cf.Writer != 0 || cf.WriterTS != 5 || !cf.Remote {
		t.Fatalf("conflict fields wrong: %+v", cf)
	}
	if d.Invalidations() == 0 || d.RemoteTransfers() == 0 {
		t.Fatal("coherence traffic not counted")
	}
}

func TestDirectoryReadDowngrade(t *testing.T) {
	d := NewDirectory(0)
	d.Write(0, 7, 5)
	cf, remote := d.Read(1, 7, false)
	if cf == nil || !remote {
		t.Fatal("read of a dirty remote line must transfer")
	}
	// Second read: line is now shared; no remote transfer, but the last
	// writer is still known.
	cf, remote = d.Read(2, 7, false)
	if remote {
		t.Fatal("shared line should not transfer again")
	}
	if cf == nil || cf.Writer != 0 || cf.Remote {
		t.Fatalf("conflict metadata wrong: %+v", cf)
	}
}

func TestDirectoryAcquireRelease(t *testing.T) {
	d := NewDirectory(0)
	d.Write(0, 7, 5)
	d.MarkRelease(0, 7, 5)
	cf, _ := d.Read(1, 7, true)
	if cf == nil || !cf.AcquireOnRelease || cf.Writer != 0 || cf.WriterTS != 5 {
		t.Fatalf("acquire-on-release not detected: %+v", cf)
	}
	// A plain read must not claim acquire semantics.
	cf, _ = d.Read(2, 7, false)
	if cf != nil && cf.AcquireOnRelease {
		t.Fatal("plain read flagged as acquire")
	}
	// A new write clears the release tag.
	d.Write(2, 7, 3)
	cf, _ = d.Read(3, 7, true)
	if cf != nil && cf.AcquireOnRelease {
		t.Fatal("release tag survived a write")
	}
}

func TestHierarchyLevels(t *testing.T) {
	cfg := config.Default()
	h := NewHierarchy(cfg, 0)
	l := mem.Line(100)

	r1 := h.Access(0, l, false, false, 1)
	if r1.Level != LevelMem {
		t.Fatalf("cold access level %q", r1.Level)
	}
	// The result aliases hierarchy scratch: copy what outlives the next
	// Access.
	coldLatency := r1.Latency
	r2 := h.Access(0, l, false, false, 1)
	if r2.Level != LevelL1 {
		t.Fatalf("warm access level %q", r2.Level)
	}
	if r2.Latency >= coldLatency {
		t.Fatal("L1 hit should be cheaper than a memory fill")
	}
}

func TestHierarchyRemoteTransfer(t *testing.T) {
	cfg := config.Default()
	h := NewHierarchy(cfg, 0)
	l := mem.Line(200)
	h.Access(0, l, true, false, 1) // core 0 dirties the line
	r := h.Access(1, l, false, false, 1)
	if r.Level != LevelRemote {
		t.Fatalf("expected remote supply, got %q", r.Level)
	}
	if !r.Conflicted || r.Conflict.Writer != 0 {
		t.Fatal("conflict not reported")
	}
}

func TestHierarchyWriteInvalidates(t *testing.T) {
	cfg := config.Default()
	h := NewHierarchy(cfg, 0)
	l := mem.Line(300)
	h.Access(0, l, false, false, 1)
	h.Access(1, l, true, false, 1) // core 1 writes: invalidates core 0
	r := h.Access(0, l, false, false, 1)
	if r.Level == LevelL1 || r.Level == LevelL2 {
		t.Fatalf("core 0 should have been invalidated, hit %q", r.Level)
	}
}

func TestLevelStrings(t *testing.T) {
	want := map[Level]string{
		LevelL1: "l1", LevelL2: "l2", LevelRemote: "remote",
		LevelLLC: "llc", LevelMem: "mem",
	}
	for lvl, s := range want {
		if lvl.String() != s {
			t.Fatalf("Level(%d).String() = %q, want %q", lvl, lvl.String(), s)
		}
	}
	if Level(200).String() != "level?" {
		t.Fatal("unknown level must not panic")
	}
}

// TestContainsDoesNotCount pins the stats-honesty contract: presence probes
// from invalidation filters and tests must not perturb hit/miss counters,
// only real accesses through Lookup may.
func TestContainsDoesNotCount(t *testing.T) {
	c := NewSetAssoc(256, 2)
	c.Insert(1)
	for i := 0; i < 10; i++ {
		c.Contains(1)  // present
		c.Contains(42) // absent
	}
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatalf("Contains counted: hits=%d misses=%d, want 0/0", c.Hits(), c.Misses())
	}
	c.Lookup(1)
	c.Lookup(42)
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("Lookup miscounted: hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
}

// TestDirectoryGrowth drives the open-addressed table through several
// doublings and checks that entry STATE survives every rehash and lookups
// still find every line — including line 0, whose slot occupancy must not
// be conflated with the zero key. (Entries live inline in the table, so
// pointers are transient by contract; it is the values that must persist.)
func TestDirectoryGrowth(t *testing.T) {
	d := NewDirectory(0)
	const n = 10 * 1024
	for i := 0; i < n; i++ {
		l := mem.Line(i * 7)
		d.Entry(l).LastWriter = int32(i % 8)
	}
	if d.Len() != n {
		t.Fatalf("Len() = %d, want %d", d.Len(), n)
	}
	for i := 0; i < n; i++ {
		l := mem.Line(i * 7)
		e, ok := d.Peek(l)
		if !ok || e.LastWriter != int32(i%8) {
			t.Fatalf("line %d: entry state lost after growth", l)
		}
	}
	if _, ok := d.Peek(mem.Line(3)); ok {
		t.Fatal("Peek invented an entry for an untouched line")
	}
}

// TestSharerTrimming checks fillPrivate's directory bookkeeping: once a
// core's private caches evict their last copy of a line, the core leaves
// the sharer vector, so a later write does not target it.
func TestSharerTrimming(t *testing.T) {
	cfg := config.Default()
	cfg.L1Size = 64 * 2 // 1 set x 2 ways
	cfg.L1Ways = 2
	cfg.L2Size = 64 * 2
	cfg.L2Ways = 2
	h := NewHierarchy(cfg, 0)

	h.Access(0, 100, false, false, 1)
	if e, ok := h.Directory().Peek(100); !ok || e.Sharers&1 == 0 {
		t.Fatal("core 0 missing from sharers after read")
	}
	// Push line 100 out of both private levels (2 ways each).
	h.Access(0, 101, false, false, 1)
	h.Access(0, 102, false, false, 1)
	if h.L1(0).Contains(100) || h.L2(0).Contains(100) {
		t.Fatal("test setup: line 100 should have been evicted")
	}
	if e, _ := h.Directory().Peek(100); e.Sharers&1 != 0 {
		t.Fatalf("core 0 still in sharers (%b) after evicting its copies", e.Sharers)
	}
	// A write by core 1 therefore has nobody to invalidate.
	_, _, inv := h.Directory().Write(1, 100, 9)
	if inv != 0 {
		t.Fatalf("invalidate mask %b, want empty after trimming", inv)
	}
}

func TestHierarchyLLCEviction(t *testing.T) {
	cfg := config.Default()
	cfg.LLCSize = 64 * 16 // 16 lines
	cfg.LLCWays = 2
	h := NewHierarchy(cfg, 0)
	var evicted int
	for i := 0; i < 64; i++ {
		r := h.Access(0, mem.Line(i*9+1), false, false, 1)
		evicted += len(r.LLCEvicted)
	}
	if evicted == 0 {
		t.Fatal("streaming through a tiny LLC must evict")
	}
}
