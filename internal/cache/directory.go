package cache

import (
	"fmt"

	"asap/internal/mem"
)

// DirEntry is the directory's coherence and persistence metadata for one
// line. Beyond MESI owner/sharer state, it carries the last writer and the
// epoch timestamp of that write — the information ASAP piggybacks on
// coherence replies to build cross-thread dependencies (§IV-E) — and, for
// release persistency, whether the line was last written by a release.
// Core-ID fields are int32 and the layout is ordered widest-first so a
// table slot (line key + entry) packs into 56 bytes — under one hardware
// cache line, where the naive int-everywhere layout straddled two and
// cost every directory probe a second miss.
type DirEntry struct {
	Sharers      uint64 // bitmask of cores with a (possibly clean) copy
	LastWriterTS uint64 // writer's epoch timestamp at the time of the write
	ReleaseTS    uint64 // epoch TS of the releasing write
	Owner        int32  // core holding the line modified, -1 if none
	LastWriter   int32  // -1 if never written
	ReleasedBy   int32
	Dirty        bool
	// Released marks a line last written by a release operation; with
	// release persistency only an acquire of such a line creates a
	// dependency (§IV-A).
	Released bool
}

// dirSlot is one open-addressed table slot with its entry stored INLINE:
// a successful probe lands directly on the coherence state instead of
// chasing a pointer into a separate slab — on a multi-megabyte simulated
// hierarchy that pointer hop is a second hardware cache miss on every
// single access. The used flag marks occupancy (line 0 is a valid key, so
// it cannot ride on the key).
type dirSlot struct {
	line mem.Line
	used bool
	e    DirEntry
}

// dirMinSlots is the smallest table; must be a power of two.
const dirMinSlots = 16

// Directory tracks coherence state for every line touched by the machine.
//
// The line → entry index is a power-of-two open-addressed table with
// linear probing. Entries are never deleted (a line's coherence history
// is kept for the whole run), so the table needs no tombstones and a
// probe sequence ends at the first empty slot. Compared to the previous
// Go map this removes the hash-interface and bucket overhead from the
// two probes every access pays (the Write/Read at the front and the
// eviction peek at the back).
//
// Entry and Peek return pointers INTO the table: they stay valid only
// until an Entry call on a previously unseen line grows the table. Every
// caller uses the entry transiently, within one hierarchy operation, so
// the hot path never re-finds an entry it is already holding.
type Directory struct {
	slots []dirSlot // len is a power of two
	mask  uint64    // len(slots) - 1
	count int       // occupied slots; grows at 3/4 load

	// scratch backs the *Conflict returned by Read and Write; it is valid
	// only until the next directory operation, which keeps the conflict
	// path allocation-free. All models consume conflicts synchronously.
	scratch Conflict

	remoteTransfers uint64
	invalidations   uint64
}

// NewDirectory returns an empty directory whose table holds lines lines
// without growing: the size doubling would reach after lines first
// touches. Machine construction passes the trace's distinct-line count, so
// a run allocates its table once and never rehashes; more lines than that
// still fit, by doubling.
func NewDirectory(lines int) *Directory {
	d := &Directory{}
	d.reset(lines)
	return d
}

// reset empties the directory and sizes its table for lines lines, as
// NewDirectory does, in the table of its last run when that is large
// enough: only the slots of the new size are cleared.
func (d *Directory) reset(lines int) {
	size := dirMinSlots
	for uint64(max(lines, 0))*4 >= uint64(size)*3 {
		size *= 2
	}
	if cap(d.slots) >= size {
		d.slots = d.slots[:size]
		clear(d.slots)
	} else {
		d.slots = make([]dirSlot, size)
	}
	*d = Directory{slots: d.slots, mask: uint64(size) - 1}
}

// dirHash spreads line numbers across the table (Fibonacci hashing).
// Workload lines are sequential within a structure, so the low bits alone
// would cluster whole regions onto neighbouring probe chains.
func dirHash(l mem.Line) uint64 {
	return uint64(l) * 0x9E3779B97F4A7C15
}

// find returns the slot index holding l, or the empty slot where l would
// be inserted.
func (d *Directory) find(l mem.Line) int {
	i := (dirHash(l) >> 32) & d.mask
	for {
		s := &d.slots[i]
		if !s.used || s.line == l {
			return int(i)
		}
		i = (i + 1) & d.mask
	}
}

// Entry returns the entry for line l, creating it on first touch. The
// pointer aliases the table and is invalidated by a later first-touch
// Entry that grows the table — use it within the current operation only.
func (d *Directory) Entry(l mem.Line) *DirEntry {
	i := d.find(l)
	if d.slots[i].used {
		return &d.slots[i].e
	}
	// Grow BEFORE inserting so the returned pointer is not immediately
	// invalidated by this call's own rehash.
	if uint64(d.count+1)*4 >= uint64(len(d.slots))*3 {
		d.grow()
		i = d.find(l)
	}
	d.slots[i] = dirSlot{line: l, used: true, e: DirEntry{Owner: -1, LastWriter: -1, ReleasedBy: -1}}
	d.count++
	return &d.slots[i].e
}

// grow doubles the table and re-places every occupied slot, entries and
// all. Outstanding entry pointers are invalidated; see the Directory
// contract.
func (d *Directory) grow() {
	old := d.slots
	d.slots = make([]dirSlot, len(old)*2) //asaplint:ignore alloccheck amortized doubling; steady-state ops never grow
	d.mask = uint64(len(d.slots)) - 1
	for _, s := range old {
		if !s.used {
			continue
		}
		i := (dirHash(s.line) >> 32) & d.mask
		for d.slots[i].used {
			i = (i + 1) & d.mask
		}
		d.slots[i] = s
	}
}

// Peek returns the entry without creating one. The pointer aliases the
// table; the same transient-use contract as Entry applies.
func (d *Directory) Peek(l mem.Line) (*DirEntry, bool) {
	if s := &d.slots[d.find(l)]; s.used {
		return &s.e, true
	}
	return nil, false
}

// Check reports whether the table is one find can probe: a power-of-two
// table that mask indexes, a count of its used slots that leaves one free
// (find stops at the first empty slot), and every line on its own probe
// sequence. A checkpoint image decodes all of it; a mask past the table
// would panic and a full table would probe forever.
func (d *Directory) Check() error {
	n := len(d.slots)
	if n == 0 || n&(n-1) != 0 || d.mask != uint64(n-1) {
		return fmt.Errorf("cache: directory mask %#x does not index a power-of-two table of %d slots", d.mask, n)
	}
	used := 0
	for i := range d.slots {
		if d.slots[i].used {
			used++
		}
	}
	if used != d.count || d.count >= n {
		return fmt.Errorf("cache: directory holds %d lines in %d slots, count says %d", used, n, d.count)
	}
	for i := range d.slots {
		if s := &d.slots[i]; s.used && d.find(s.line) != i {
			return fmt.Errorf("cache: directory line %d sits in slot %d, off its probe sequence", s.line, i)
		}
	}
	return nil
}

// Capacity reports the table's slot count (tests).
func (d *Directory) Capacity() int { return len(d.slots) }

// Len reports the number of lines with directory state (tests).
func (d *Directory) Len() int { return d.count }

// Conflict describes a remote access that hit a line modified by another
// core — the raw material for a cross-thread dependency. Pointers returned
// by Read and Write alias the directory's scratch storage and are valid
// only until the next directory operation.
type Conflict struct {
	Line     mem.Line
	Writer   int    // core that last modified the line
	WriterTS uint64 // epoch of that write
	// Remote is true when the access required a cache-to-cache transfer
	// from the modifying core — the coherence forwarding event that
	// establishes a dependency under epoch persistency (§IV-E).
	Remote bool
	// AcquireOnRelease is true when the access is an acquire operation on
	// a line last written by a release (the RP dependency condition).
	AcquireOnRelease bool
}

// Write records a store by core to line l within epoch ts. It returns a
// Conflict when the line was last modified by a different core (strong
// persist atomicity, §II-A), whether a remote cache-to-cache transfer was
// required, and the bitmask of other cores that may hold a copy — the
// sharers the hierarchy must invalidate. The directory's own sharer state
// is reset to the writer alone.
func (d *Directory) Write(core int, l mem.Line, ts uint64) (conflict *Conflict, remote bool, invalidate uint64) {
	e := d.Entry(l)
	c32 := int32(core)
	if e.LastWriter >= 0 && e.LastWriter != c32 {
		d.scratch = Conflict{Line: l, Writer: int(e.LastWriter), WriterTS: e.LastWriterTS}
		conflict = &d.scratch
	}
	if e.Owner >= 0 && e.Owner != c32 {
		remote = true
		d.remoteTransfers++
		if conflict != nil {
			conflict.Remote = true
		}
	}
	invalidate = e.Sharers &^ (1 << uint(core))
	if invalidate != 0 {
		d.invalidations++
	}
	e.Owner = c32
	e.Sharers = 1 << uint(core)
	e.Dirty = true
	e.LastWriter = c32
	e.LastWriterTS = ts
	e.Released = false
	return conflict, remote, invalidate
}

// Read records a load by core of line l. A dirty remote copy is downgraded
// to shared (the data is supplied cache-to-cache). The returned Conflict is
// non-nil when the line's last writer is a different core.
func (d *Directory) Read(core int, l mem.Line, acquire bool) (conflict *Conflict, remote bool) {
	e := d.Entry(l)
	c32 := int32(core)
	if e.LastWriter >= 0 && e.LastWriter != c32 {
		d.scratch = Conflict{Line: l, Writer: int(e.LastWriter), WriterTS: e.LastWriterTS}
		if acquire && e.Released {
			d.scratch.AcquireOnRelease = true
			d.scratch.Writer = int(e.ReleasedBy)
			d.scratch.WriterTS = e.ReleaseTS
		}
		conflict = &d.scratch
	}
	if e.Dirty && e.Owner != c32 && e.Owner >= 0 {
		remote = true
		d.remoteTransfers++
		if conflict != nil {
			conflict.Remote = true
		}
		e.Dirty = false
		e.Owner = -1
	}
	e.Sharers |= 1 << uint(core)
	return conflict, remote
}

// ClearSharer drops core from line l's sharer vector. The hierarchy calls
// this when the core's last private copy of the line is evicted, keeping
// the vector precise so stores invalidate only caches that can actually
// hold the line.
func (d *Directory) ClearSharer(core int, l mem.Line) {
	if s := &d.slots[d.find(l)]; s.used {
		s.e.Sharers &^= 1 << uint(core)
	}
}

// MarkRelease tags line l as last written by a release from core within
// epoch ts. The machine calls this for the lock/flag line of a Release op.
func (d *Directory) MarkRelease(core int, l mem.Line, ts uint64) {
	e := d.Entry(l)
	e.Released = true
	e.ReleasedBy = int32(core)
	e.ReleaseTS = ts
}

// RemoteTransfers and Invalidations report coherence traffic.
func (d *Directory) RemoteTransfers() uint64 { return d.remoteTransfers }
func (d *Directory) Invalidations() uint64   { return d.invalidations }
