// Package cache models the three-level cache hierarchy and the MESI-style
// directory of Table II. Only presence and coherence metadata are tracked —
// data values travel through the persist path (package persist) — but
// placement is a real set-associative LRU model so that hit rates, remote
// transfers and LLC evictions behave realistically. Storage is sized from
// the trace, not from the capacity: each cache holds way state only for the
// sets a run reaches, in one slab reserved from the machine's pass over the
// trace, and the directory's table is sized for the trace's distinct lines.
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"asap/internal/mem"
)

// invalidLine marks an empty way. Line keys are stored as uint32 (see
// slot), and the all-ones value would be a byte address past 2^37 — the
// address map keeps PM lines far below that (mem lines start at 2^26 for
// megabyte-scale heaps), and key32 enforces the cap. Folding validity into
// the key lets every set scan compare a single word per way.
const invalidLine = ^uint32(0)

// slot packs one way's entire state — line key, validity, and LRU recency
// stamp — into eight bytes, so a set probe (the operation every access
// repeats three to eight times) touches exactly one CPU cache line for an
// 8-way set, and a hit's recency update lands in the line the scan already
// loaded. The previous parallel lines/stamps arrays cost a second cache
// miss per touch and doubled the state footprint; on a multi-megabyte
// hierarchy those misses, not the compare loop, dominate the probe.
type slot struct {
	line uint32
	// stamp is the cache-wide recency stamp of this way's last touch;
	// higher = more recent. Stamps are unique while occupied, so the
	// occupied way with the smallest stamp is exactly the set's LRU way.
	stamp uint32
}

// SetAssoc is a set-associative cache of line presence with LRU replacement.
//
// Way state is sparse: a set gets its ways slots on the first insert that
// reaches it, appended to one slab, and index maps each set to its place
// there. A run touches a small fraction of a Table II cache's sets — its
// lines land far apart, about one per 64 consecutive sets — so storage
// follows the touched sets rather than the capacity. Machine construction
// counts, in its pass over the trace, the distinct sets a complete run
// reaches in each cache (Reserve), and the first insert sizes the slab
// for exactly that many; a cache that is never inserted into allocates
// nothing.
type SetAssoc struct {
	geom
	ways int

	// index has one entry per set once the first insert allocates it
	// (nil before): 0 while no insert has reached the set, otherwise 1 +
	// the set's position in slots, in whole sets. slots holds ways
	// consecutive slots per reached set, in the order the sets were
	// reached.
	index []uint32
	slots []slot
	// reserve is the number of sets the slab is sized for when it
	// (re)allocates: the trace's count, so a complete run never grows it.
	reserve int

	// tick is the source of recency stamps: every touch assigns the next
	// value, making LRU selection a single min-scan instead of the
	// classic rank-shuffling walk. On the (rare) wrap the stamps are
	// compacted per set, preserving relative order.
	tick uint32

	hits, misses, evictions uint64
}

// NewSetAssoc builds a cache of sizeBytes capacity with the given
// associativity over 64-byte lines. Sizes that do not divide evenly are
// rounded down to a whole number of sets (minimum one). It allocates no
// way state; see Reserve.
func NewSetAssoc(sizeBytes, ways int) *SetAssoc {
	return &SetAssoc{geom: newGeom(sizeBytes, ways), ways: ways}
}

// geom is a cache's set mapping.
type geom struct {
	sets int
	// mask indexes sets without a divide when sets is a power of two
	// (pow2 true) — every Table II geometry. Other set counts fall back
	// to the modulo path.
	mask uint64
	pow2 bool
}

// newGeom returns the set mapping of a cache of sizeBytes capacity with
// the given associativity.
func newGeom(sizeBytes, ways int) geom {
	if ways <= 0 || sizeBytes <= 0 {
		panic("cache: size and ways must be positive")
	}
	g := geom{sets: max(sizeBytes/mem.LineSize/ways, 1)}
	if g.sets&(g.sets-1) == 0 {
		g.pow2, g.mask = true, uint64(g.sets-1)
	}
	return g
}

// setOf maps line l to its set index.
func (g *geom) setOf(l mem.Line) uint {
	if g.pow2 {
		return uint(uint64(l) & g.mask)
	}
	return uint(uint64(l) % uint64(g.sets))
}

// SetCounter counts the distinct sets of one cache geometry that a stream
// of lines maps to: the sets a cache filled with exactly those lines
// reaches. Machine construction feeds it the trace's lines to size each
// cache's slab (Reserve).
type SetCounter struct {
	geom
	seen []uint64 // bit per set
}

// NewSetCounter returns a counter for a cache of sizeBytes capacity with
// the given associativity.
func NewSetCounter(sizeBytes, ways int) SetCounter {
	g := newGeom(sizeBytes, ways)
	return SetCounter{geom: g, seen: make([]uint64, (g.sets+63)/64)}
}

// Add marks line l's set.
func (s *SetCounter) Add(l mem.Line) {
	i := s.setOf(l)
	s.seen[i/64] |= 1 << (i % 64)
}

// Count reports the distinct sets added since the last Reset.
func (s *SetCounter) Count() int {
	n := 0
	for _, w := range s.seen {
		n += bits.OnesCount64(w)
	}
	return n
}

// Reset forgets every set, for the next stream.
func (s *SetCounter) Reset() { clear(s.seen) }

// Reserve sizes the slab's next allocation for sets distinct sets: the
// number a complete run reaches. Inserts past it still succeed; the slab
// then grows like an append.
func (c *SetAssoc) Reserve(sets int) { c.reserve = min(max(sets, 0), c.sets) }

// Reserved reports the number of sets Reserve sized the slab for, and
// Used the number of sets inserts have reached.
func (c *SetAssoc) Reserved() int { return c.reserve }
func (c *SetAssoc) Used() int     { return len(c.slots) / c.ways }

// key32 narrows a line to the packed key width, enforcing the
// representation cap. The address map keeps every real line far below
// 2^32 (PM begins at byte address 2^32, line 2^26); hitting this panic
// means the layout changed and the slot key must widen with it. Only the
// insert paths call it — probe paths (Lookup, Contains, Invalidate)
// instead compare the stored key widened to 64 bits, which is exact
// without any guard: every resident key passed this check on insert, so
// an oversized probe line can never falsely match, it just misses.
func key32(l mem.Line) uint32 {
	if uint64(l) >= uint64(invalidLine) {
		panic("cache: line number exceeds the packed-slot 2^32-1 cap")
	}
	return uint32(l)
}

// resident returns the ways of line l's set, or nil if no insert has
// reached the set: a probe of an untouched set misses without allocating.
// The single bounds test covers both a cache that has no storage yet and
// the index load itself.
func (c *SetAssoc) resident(l mem.Line) []slot {
	s := c.setOf(l)
	if s >= uint(len(c.index)) {
		return nil
	}
	p := int(c.index[s])
	if p == 0 {
		return nil
	}
	base := (p - 1) * c.ways
	return c.slots[base : base+c.ways]
}

// set returns the ways of line l's set, giving the set its slots on the
// first insert that reaches it.
func (c *SetAssoc) set(l mem.Line) []slot {
	s := c.setOf(l)
	if s >= uint(len(c.index)) || c.index[s] == 0 {
		c.take(s)
	}
	base := (int(c.index[s]) - 1) * c.ways
	return c.slots[base : base+c.ways]
}

// take appends set s's ways to the slab, every way empty, and points the
// set's index entry at them. The cache's first insert allocates the index,
// and the slab is allocated at the reservation when a set first needs it —
// on the first insert, or after a checkpoint load whose slab has no spare
// capacity — and past the reservation grows like an append. A set's ways
// are cleared here rather than at allocation: a checkpoint restore
// truncates the slab without zeroing what lies past its length.
func (c *SetAssoc) take(s uint) {
	if len(c.index) == 0 {
		c.index = make([]uint32, c.sets) //asaplint:ignore alloccheck first insert allocates the cache's set index, once per run
	}
	n := len(c.slots)
	if n+c.ways > cap(c.slots) {
		c.slots = slices.Grow(c.slots, max(c.reserve*c.ways, n+c.ways)-n) //asaplint:ignore alloccheck the slab is sized from the trace on first insert; a complete run never grows it
	}
	c.slots = c.slots[:n+c.ways]
	for w := n; w < n+c.ways; w++ {
		c.slots[w] = slot{line: invalidLine}
	}
	c.index[s] = uint32(n/c.ways + 1)
}

// Lookup reports whether line l is present, updating recency and the
// hit/miss counters. Use Contains for presence probes that are not real
// cache accesses (invalidation filters, tests) so hit rates stay honest.
func (c *SetAssoc) Lookup(l mem.Line) bool {
	k := uint64(l)
	set := c.resident(l)
	for w := range set {
		if uint64(set[w].line) == k {
			c.touch(&set[w])
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// Contains reports presence without updating recency or hit counters.
func (c *SetAssoc) Contains(l mem.Line) bool {
	k := uint64(l)
	set := c.resident(l)
	for w := range set {
		if uint64(set[w].line) == k {
			return true
		}
	}
	return false
}

// Insert places line l, evicting the LRU way if the set is full. It returns
// the evicted line and whether an eviction happened. Inserting a present
// line only refreshes recency.
func (c *SetAssoc) Insert(l mem.Line) (mem.Line, bool) {
	k := key32(l)
	set := c.set(l)
	// Hit scan first: refreshing a resident line is the common case on
	// fill paths (the lower levels usually already hold it), and this
	// loop is a single compare per way.
	for w := range set {
		if set[w].line == k {
			c.touch(&set[w])
			return 0, false
		}
	}
	// Miss: fill the first empty way if there is one; otherwise evict the
	// occupied way with the smallest stamp — the set's LRU.
	victim := 0
	oldest := ^uint32(0)
	for w := range set {
		if set[w].line == invalidLine {
			set[w].line = k
			c.touch(&set[w])
			return 0, false
		}
		if s := set[w].stamp; s < oldest {
			oldest = s
			victim = w
		}
	}
	evicted := mem.Line(set[victim].line)
	set[victim].line = k
	c.touch(&set[victim])
	c.evictions++
	return evicted, true
}

// InsertAbsent places line l, which the caller knows is NOT present —
// either its Lookup just missed, or a coherence invariant rules the line
// out (a remote transfer means every other holder was invalidated by the
// owning core's write). Skipping Insert's hit scan halves the work of the
// fill paths. Returns the evicted line and whether an eviction happened.
func (c *SetAssoc) InsertAbsent(l mem.Line) (mem.Line, bool) {
	k := key32(l)
	set := c.set(l)
	victim := 0
	oldest := ^uint32(0)
	for w := range set {
		if set[w].line == invalidLine {
			set[w].line = k
			c.touch(&set[w])
			return 0, false
		}
		if s := set[w].stamp; s < oldest {
			oldest = s
			victim = w
		}
	}
	evicted := mem.Line(set[victim].line)
	set[victim].line = k
	c.touch(&set[victim])
	c.evictions++
	return evicted, true
}

// Invalidate removes line l if present.
func (c *SetAssoc) Invalidate(l mem.Line) {
	k := uint64(l)
	set := c.resident(l)
	for w := range set {
		if uint64(set[w].line) == k {
			set[w].line = invalidLine
			return
		}
	}
}

// touch makes a way the MRU of its set by assigning the next recency
// stamp — O(1), where the classic rank-based LRU walks the whole set to
// age more-recent ways. The recency ORDER the two schemes maintain is
// identical, so every eviction decision (and with it every golden table)
// is unchanged.
func (c *SetAssoc) touch(s *slot) {
	c.tick++
	if c.tick == 0 {
		// The 32-bit tick wrapped (once per ~4.3 billion touches on one
		// cache). Compact every set's stamps down to small values,
		// preserving their relative order, then resume above them.
		c.tick = c.compact() + 1
	}
	s.stamp = c.tick
}

// compact renormalizes all stamps after a tick wrap: within each set,
// occupied ways are re-stamped 1..k in their existing recency order
// (stamps are unique within a set, so the order is total). Returns the
// highest stamp assigned. Runs once per 2^32 touches; cost is
// O(capacity · ways).
func (c *SetAssoc) compact() uint32 {
	ranks := make([]uint32, c.ways) //asaplint:ignore alloccheck stamp-wrap renormalization runs once per 2^32 touches
	max := uint32(0)
	for base := 0; base+c.ways <= len(c.slots); base += c.ways {
		set := c.slots[base : base+c.ways]
		for w := 0; w < c.ways; w++ {
			r := uint32(1)
			for v := 0; v < c.ways; v++ {
				if v != w && set[v].line != invalidLine && set[v].stamp < set[w].stamp {
					r++
				}
			}
			ranks[w] = r
		}
		for w := 0; w < c.ways; w++ {
			if set[w].line != invalidLine {
				set[w].stamp = ranks[w]
				if ranks[w] > max {
					max = ranks[w]
				}
			}
		}
	}
	return max
}

// Hits, Misses and Evictions report access outcomes.
func (c *SetAssoc) Hits() uint64      { return c.hits }
func (c *SetAssoc) Misses() uint64    { return c.misses }
func (c *SetAssoc) Evictions() uint64 { return c.evictions }

// Check reports whether the cache's state is one its methods can run on:
// a set mask that indexes the set count, an index with one entry per set
// (or none before the first insert), a slab of whole sets, each reached
// by exactly one index entry, and every resident line in its own set, at
// most once. A checkpoint image decodes all of it, and a malformed index
// or slab would panic on the first probe.
func (c *SetAssoc) Check() error {
	switch {
	case c.sets <= 0 || c.ways <= 0:
		return fmt.Errorf("cache: %d sets of %d ways", c.sets, c.ways)
	case c.pow2 != (c.sets&(c.sets-1) == 0), c.pow2 && c.mask != uint64(c.sets-1):
		return fmt.Errorf("cache: set mask %#x (pow2 %v) does not index %d sets", c.mask, c.pow2, c.sets)
	case c.reserve < 0 || c.reserve > c.sets:
		return fmt.Errorf("cache: reservation of %d sets in a %d-set cache", c.reserve, c.sets)
	case len(c.index) != 0 && len(c.index) != c.sets:
		return fmt.Errorf("cache: set index of %d entries for %d sets", len(c.index), c.sets)
	case len(c.slots)%c.ways != 0:
		return fmt.Errorf("cache: slab of %d slots is not whole sets of %d ways", len(c.slots), c.ways)
	}
	used := len(c.slots) / c.ways
	reached := make([]bool, used)
	n := 0
	for s, p := range c.index {
		if p == 0 {
			continue
		}
		if int(p) > used {
			return fmt.Errorf("cache: set %d names slab set %d of %d", s, p, used)
		}
		if reached[p-1] {
			return fmt.Errorf("cache: two sets name slab set %d", p)
		}
		reached[p-1] = true
		n++
		set := c.slots[int(p-1)*c.ways : int(p)*c.ways]
		for w, sl := range set {
			if sl.line == invalidLine {
				continue
			}
			if c.setOf(mem.Line(sl.line)) != uint(s) {
				return fmt.Errorf("cache: line %d sits in set %d, not its own", sl.line, s)
			}
			for _, o := range set[w+1:] {
				if o.line == sl.line {
					return fmt.Errorf("cache: set %d holds line %d twice", s, sl.line)
				}
			}
		}
	}
	if n != used {
		return fmt.Errorf("cache: the index reaches %d of the slab's %d sets", n, used)
	}
	return nil
}
