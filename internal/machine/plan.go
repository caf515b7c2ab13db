package machine

import (
	"fmt"
	"slices"

	"asap/internal/cache"
	"asap/internal/config"
	"asap/internal/mem"
	"asap/internal/trace"
)

// The plan's pages are 4096 lines (256 KiB of PM), whose bits take 512 B.
// The page directory starts at pmInitSlots slots (a power of two): room
// for the few pages a short run touches without rehashing. Compile's
// scratch holds scratchWords per page: bits for the lines of the whole
// trace, of the thread being scanned, and of persistent stores.
const (
	pmPageShift  = 12
	pmPageWords  = 1 << pmPageShift / 64
	pmInitSlots  = 8
	scratchWords = 3 * pmPageWords
)

// planPage is one slot of the plan's page directory.
type planPage struct {
	key uint64 // page number + 1; 0 marks the slot empty
	at  uint32 // index of the page's bitsets in Compile's scratch
	pm  uint32 // 1 + the page's index in the machine's PM mark bits; 0: no persistent store
}

// Plan is everything a machine derives from its trace under its config,
// built by one pass over the trace (Compile) and immutable after: New and
// Reset size a machine's storage from it, the harness shares one among
// the machines it builds or resets for one trace and config, and
// checkpoint images leave it out (Load compiles it again).
type Plan struct {
	cfg config.Config
	tr  *trace.Trace

	// dir finds each page the trace's loads, stores and lock ops touch
	// (linear probing, a power-of-two length, at most half full); the
	// pmPages a persistent store touches get PM mark bits. Host memory
	// follows the lines touched, however far apart (WHISPER logs sit a GiB
	// above their data).
	dir     []planPage
	pmPages int

	// lockLines lists the lock lines the acquires name, ascending: the
	// index of the machine's lock table.
	lockLines []mem.Line

	// The cache footprint of a complete run: the distinct lines touched
	// (the coherence directory's entries) and the distinct sets they reach
	// per thread in its core's L1 and L2 and over all threads in the LLC.
	lines          int
	l1Sets, l2Sets []int
	llcSets        int

	// tokens counts persistent stores, one ledger token each. epochs[th]
	// counts the epoch timestamps thread th's fences, lock and strand ops
	// can reach: 1, and one more per such op (epochs split off at a
	// dependency come on top).
	tokens int
	epochs []int

	// By controller: the distinct lines persistent stores write there.
	pmLines []int
}

// opensEpoch marks the op kinds that can open an epoch: fences, lock ops
// and strand boundaries. Indexed by kind, it adds to the trace pass's
// epoch count without a branch.
var opensEpoch = [256]uint8{
	trace.OpOfence: 1, trace.OpDfence: 1, trace.OpAcquire: 1, trace.OpRelease: 1, trace.OpStrand: 1,
}

// Compile checks cfg and tr and builds the trace's plan in one pass. An op
// on a line its thread has touched before costs one bit test; only a line
// new to its thread counts its L1 and L2 sets, only a line new to the
// trace its LLC set, and only a persistent store to a line new to the PM
// bits its controller's PM-line count. Consecutive ops mostly stay on one
// page, so the page lookup is cached.
func Compile(cfg config.Config, tr *trace.Trace) (*Plan, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	threads := tr.NumThreads()
	if threads > cfg.Cores {
		return nil, fmt.Errorf("machine: trace has %d threads but config has %d cores", threads, cfg.Cores)
	}
	p := &Plan{
		cfg: cfg, tr: tr, dir: make([]planPage, pmInitSlots),
		l1Sets: make([]int, threads), l2Sets: make([]int, threads),
		epochs: make([]int, threads), pmLines: make([]int, cfg.MCs),
	}
	il := mem.NewInterleaver(cfg.MCs, cfg.InterleaveBytes)
	l1 := cache.NewSetCounter(cfg.L1Size, cfg.L1Ways)
	l2 := cache.NewSetCounter(cfg.L2Size, cfg.L2Ways)
	llc := cache.NewSetCounter(cfg.LLCSize, cfg.LLCWays)
	var scratch []uint64
	lastPage, page := ^uint64(0), (*planPage)(nil)
	for th, ops := range tr.Threads {
		for at := pmPageWords; at < len(scratch); at += scratchWords {
			clear(scratch[at : at+pmPageWords])
		}
		l1.Reset()
		l2.Reset()
		prev := ^uint64(0) // the thread's previous line, already counted
		epochs := 2        // timestamps 0 (unused) and 1
		for i := range ops {
			op := &ops[i]
			epochs += int(opensEpoch[op.Kind])
			pm := false
			switch op.Kind {
			case trace.OpAcquire:
				l := mem.LineOf(op.Addr)
				if j, ok := slices.BinarySearch(p.lockLines, l); !ok {
					p.lockLines = slices.Insert(p.lockLines, j, l)
				}
			case trace.OpStore:
				pm = op.Persistent
			case trace.OpLoad, trace.OpRelease:
			default:
				continue
			}
			l := uint64(mem.LineOf(op.Addr))
			if l == prev && !pm {
				continue
			}
			prev = l
			if pg := l >> pmPageShift; pg != lastPage {
				page = p.slot(pg)
				if page.key == 0 {
					*page = planPage{key: pg + 1, at: uint32(len(scratch))}
					scratch = append(scratch, make([]uint64, scratchWords)...)
					if pages := len(scratch) / scratchWords; 2*pages > len(p.dir) {
						p.rehash(2 * len(p.dir))
						page = p.slot(pg)
					}
				}
				lastPage = pg
			}
			w := uint64(page.at) + l>>6&(pmPageWords-1)
			bit := uint64(1) << (l & 63)
			if pm {
				p.tokens++
				if pw := &scratch[w+2*pmPageWords]; *pw&bit == 0 {
					*pw |= bit
					p.pmLines[il.Home(mem.Line(l))]++
					if page.pm == 0 {
						p.pmPages++
						page.pm = uint32(p.pmPages)
					}
				}
			}
			if tw := &scratch[w+pmPageWords]; *tw&bit == 0 {
				*tw |= bit // the thread's first touch of the line
				l1.Add(mem.Line(l))
				l2.Add(mem.Line(l))
				if scratch[w]&bit == 0 {
					scratch[w] |= bit
					p.lines++
					llc.Add(mem.Line(l))
				}
			}
		}
		p.l1Sets[th], p.l2Sets[th] = l1.Count(), l2.Count()
		p.epochs[th] = epochs
	}
	p.llcSets = llc.Count()
	return p, nil
}

// slot returns page's directory slot, or the empty slot where it would go.
// Pages are spread by Fibonacci hashing: structures lay out sequential
// pages, which the low bits alone would cluster onto neighbouring chains.
func (p *Plan) slot(page uint64) *planPage {
	mask := uint64(len(p.dir) - 1)
	for i := (page * 0x9E3779B97F4A7C15) >> 32 & mask; ; i = (i + 1) & mask {
		s := &p.dir[i]
		if s.key == page+1 || s.key == 0 {
			return s
		}
	}
}

// rehash moves the directory to n slots.
func (p *Plan) rehash(n int) {
	old := p.dir
	p.dir = make([]planPage, n)
	for _, s := range old {
		if s.key != 0 {
			*p.slot(s.key - 1) = s
		}
	}
}

// pmWord returns the word of the PM mark bits bits that holds line l, or
// nil if no persistent store of the trace touches l's page.
func (p *Plan) pmWord(bits []uint64, l mem.Line) *uint64 {
	s := p.slot(uint64(l) >> pmPageShift)
	if s.pm == 0 {
		return nil
	}
	return &bits[uint64(s.pm-1)*pmPageWords+uint64(l)>>6&(pmPageWords-1)]
}
