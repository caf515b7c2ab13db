package machine

import (
	"slices"

	"asap/internal/cache"
	"asap/internal/config"
	"asap/internal/mem"
	"asap/internal/trace"
)

// pmPageShift sets the filter's page size: 4096 lines (256 KiB of PM),
// whose bits take 512 B.
const (
	pmPageShift = 12
	pmPageWords = 1 << pmPageShift / 64
)

// pmInitSlots is the page directory's initial size (a power of two): room
// for the few pages a short run touches without rehashing.
const pmInitSlots = 8

// pmPage is one slot of the filter's page directory.
type pmPage struct {
	key uint64 // page number + 1; 0 marks the slot empty
	off uint32 // index in bits of the page's first word
}

// pmFilter answers "is this line persistent memory?" on the LLC-eviction
// path. It is a paged bitset: the pre-scan at construction finds the pages
// of lines the trace's persistent stores touch, and only those pages get
// bits, found through a small open-addressed directory (linear probing, at
// most half full). Host memory therefore follows the lines the trace
// touches, however far apart they lie — the WHISPER generators put their
// log a GiB above their data. Membership is still marked at run time as
// each persistent store issues, so stats that depend on when a line became
// persistent are unchanged.
type pmFilter struct {
	dir  []pmPage
	mask uint64 // len(dir)-1; len(dir) is a power of two
	bits []uint64
}

// newPMFilter builds the filter for the pages the trace's persistent
// stores touch, and counts those stores.
func newPMFilter(tr *trace.Trace) (f pmFilter, pstores int) {
	f = pmFilter{dir: make([]pmPage, pmInitSlots), mask: pmInitSlots - 1}
	pages := uint32(0)
	last := uint64(0) // key of the page inserted or found last
	for _, ops := range tr.Threads {
		for i := range ops {
			op := &ops[i]
			if op.Kind != trace.OpStore || !op.Persistent {
				continue
			}
			pstores++
			key := uint64(mem.LineOf(op.Addr))>>pmPageShift + 1
			if key == last {
				continue
			}
			last = key
			if s := f.slot(key - 1); s.key == 0 {
				*s = pmPage{key: key, off: pages * pmPageWords}
				pages++
				if 2*uint64(pages) > uint64(len(f.dir)) {
					f.rehash(2 * len(f.dir))
				}
			}
		}
	}
	f.bits = make([]uint64, pages*pmPageWords)
	return f, pstores
}

// slot returns page's directory slot, or the empty slot where it would go.
// Pages are spread by Fibonacci hashing: structures lay out sequential
// pages, which the low bits alone would cluster onto neighbouring chains.
func (f *pmFilter) slot(page uint64) *pmPage {
	for i := (page * 0x9E3779B97F4A7C15) >> 32 & f.mask; ; i = (i + 1) & f.mask {
		s := &f.dir[i]
		if s.key == page+1 || s.key == 0 {
			return s
		}
	}
}

// rehash moves the directory to n slots.
func (f *pmFilter) rehash(n int) {
	old := f.dir
	f.dir, f.mask = make([]pmPage, n), uint64(n-1)
	for _, s := range old {
		if s.key != 0 {
			*f.slot(s.key - 1) = s
		}
	}
}

// word returns the bitset word holding line l, or nil if l's page carries
// no persistent store.
func (f *pmFilter) word(l mem.Line) *uint64 {
	s := f.slot(uint64(l) >> pmPageShift)
	if s.key == 0 {
		return nil
	}
	return &f.bits[uint64(s.off)+uint64(l)>>6&(pmPageWords-1)]
}

// mark records line l as persistent. Marks come from the same trace ops
// the pre-scan saw, so l's page always has bits.
func (f *pmFilter) mark(l mem.Line) {
	*f.word(l) |= 1 << (l & 63)
}

// has reports whether line l has carried a persistent store.
func (f *pmFilter) has(l mem.Line) bool {
	w := f.word(l)
	return w != nil && *w&(1<<(l&63)) != 0
}

// footprint is what a complete run of a trace fills in the cache
// hierarchy: the distinct lines the trace's loads, stores and lock
// operations touch (the coherence directory's entries) and the distinct
// sets those lines reach in each cache — per thread in its core's L1 and
// L2, over all threads in the LLC. Machine construction sizes the
// directory and every cache's slab from it up front.
type footprint struct {
	lines          int
	l1Sets, l2Sets []int // by thread
	llcSets        int
	// epochs[th] counts the epoch timestamps thread th's fences and lock
	// and strand ops can reach: the first is 1, and each such op opens at
	// most one more. The ledger sizes the thread's epoch records from it;
	// epochs a model splits off at a cross-thread dependency come on top.
	epochs []int
}

// opensEpoch marks the op kinds that can open an epoch: fences, lock ops
// and strand boundaries. Indexed by kind, it adds to the trace pass's
// epoch count without a branch.
var opensEpoch = [256]uint8{
	trace.OpOfence: 1, trace.OpDfence: 1, trace.OpAcquire: 1, trace.OpRelease: 1, trace.OpStrand: 1,
}

// traceLines counts the trace's footprint under cfg's cache geometry and
// lists the lock lines in ascending order, the index of the machine's lock
// table. It marks lines in a throwaway paged bitset of the filter's shape
// whose pages hold two bitsets: the lines of the whole trace, and the
// lines of the thread being scanned (cleared between threads). An op on a
// line its thread has touched before costs one bit test; only a line new
// to its thread counts its L1 and L2 sets, and only a line new to the
// trace its LLC set. Consecutive ops mostly stay on one page, so the page
// lookup is cached. A lock is acquired before it is released, so the
// acquires name every lock line.
func traceLines(tr *trace.Trace, cfg config.Config) (fp footprint, lockLines []mem.Line) {
	const pageWords = 2 * pmPageWords // trace bits, then thread bits
	f := pmFilter{dir: make([]pmPage, pmInitSlots), mask: pmInitSlots - 1}
	l1 := cache.NewSetCounter(cfg.L1Size, cfg.L1Ways)
	l2 := cache.NewSetCounter(cfg.L2Size, cfg.L2Ways)
	llc := cache.NewSetCounter(cfg.LLCSize, cfg.LLCWays)
	fp.l1Sets, fp.l2Sets = make([]int, len(tr.Threads)), make([]int, len(tr.Threads))
	fp.epochs = make([]int, len(tr.Threads))
	lastPage, lastOff := ^uint64(0), uint64(0)
	for th, ops := range tr.Threads {
		for off := pmPageWords; off < len(f.bits); off += pageWords {
			clear(f.bits[off : off+pmPageWords])
		}
		l1.Reset()
		l2.Reset()
		prev := ^uint64(0) // the thread's previous line, already counted
		epochs := 2        // timestamps 0 (unused) and 1
		for i := range ops {
			epochs += int(opensEpoch[ops[i].Kind])
			switch ops[i].Kind {
			case trace.OpAcquire:
				l := mem.LineOf(ops[i].Addr)
				if j, ok := slices.BinarySearch(lockLines, l); !ok {
					lockLines = slices.Insert(lockLines, j, l)
				}
			case trace.OpLoad, trace.OpStore, trace.OpRelease:
			default:
				continue
			}
			l := uint64(mem.LineOf(ops[i].Addr))
			if l == prev {
				continue
			}
			prev = l
			if page := l >> pmPageShift; page != lastPage {
				s := f.slot(page)
				if s.key == 0 {
					*s = pmPage{key: page + 1, off: uint32(len(f.bits))}
					f.bits = append(f.bits, make([]uint64, pageWords)...)
					if pages := len(f.bits) / pageWords; 2*pages > len(f.dir) {
						f.rehash(2 * len(f.dir))
						s = f.slot(page)
					}
				}
				lastPage, lastOff = page, uint64(s.off)
			}
			w := lastOff + l>>6&(pmPageWords-1)
			bit := uint64(1) << (l & 63)
			if f.bits[w+pmPageWords]&bit != 0 {
				continue // the thread touched the line before
			}
			f.bits[w+pmPageWords] |= bit
			l1.Add(mem.Line(l))
			l2.Add(mem.Line(l))
			if f.bits[w]&bit == 0 {
				f.bits[w] |= bit
				fp.lines++
				llc.Add(mem.Line(l))
			}
		}
		fp.l1Sets[th], fp.l2Sets[th] = l1.Count(), l2.Count()
		fp.epochs[th] = epochs
	}
	fp.llcSets = llc.Count()
	return fp, lockLines
}
