package machine

import (
	"fmt"
	"slices"
	"testing"

	"asap/internal/cache"
	"asap/internal/config"
	"asap/internal/mem"
	"asap/internal/model"
	"asap/internal/rng"
	"asap/internal/trace"
	"asap/internal/workload"
)

// pmTrace builds a one-thread trace of persistent stores to lines, with a
// volatile store and a load after each so the pre-scan has to skip them.
func pmTrace(lines []mem.Line) *trace.Trace {
	var b trace.Builder
	for _, l := range lines {
		b.StoreP(uint64(l) * mem.LineSize)
		b.StoreV(uint64(l+1) * mem.LineSize)
		b.Load(uint64(l+2) * mem.LineSize)
	}
	b.Dfence()
	return &trace.Trace{Name: "pmfilter", Threads: [][]trace.Op{b.Ops()}}
}

// markPM and isPM mark and test line l's PM bit as the machine's store and
// LLC-eviction paths do.
func markPM(m *Machine, l mem.Line) { *m.plan.pmWord(m.pm, l) |= 1 << (l & 63) }

func isPM(m *Machine, l mem.Line) bool {
	w := m.plan.pmWord(m.pm, l)
	return w != nil && *w&(1<<(l&63)) != 0
}

// pmMachine returns a machine holding only the plan of trace tr and PM
// mark bits for it: what markPM and isPM read.
func pmMachine(t *testing.T, tr *trace.Trace) *Machine {
	t.Helper()
	p, err := Compile(config.Default(), tr)
	if err != nil {
		t.Fatal(err)
	}
	return &Machine{plan: p, pm: make([]uint64, p.pmPages*pmPageWords)}
}

// checkPMFilter replays lines through a plan's PM filter and a map
// oracle, marking them in trace order as the machine does, and after
// every mark compares isPM on the marked lines, every probe and each
// one's neighbours. It also checks that the mark bits are exactly one
// page per page a persistent store touches.
func checkPMFilter(t *testing.T, lines, probes []mem.Line) {
	t.Helper()
	m := pmMachine(t, pmTrace(lines))
	if m.plan.tokens != len(lines) {
		t.Fatalf("the plan counts %d persistent stores, want %d", m.plan.tokens, len(lines))
	}
	pages, touched := map[uint64]bool{}, map[uint64]bool{}
	for _, l := range lines {
		pages[uint64(l)>>pmPageShift] = true
		for _, tl := range []mem.Line{l, l + 1, l + 2} {
			touched[uint64(tl)>>pmPageShift] = true
		}
	}
	if m.plan.pmPages != len(pages) {
		t.Fatalf("the plan gives %d pages mark bits for %d touched by persistent stores", m.plan.pmPages, len(pages))
	}
	if len(m.plan.dir) > max(pmInitSlots, 4*len(touched)) {
		t.Fatalf("directory has %d slots for %d touched pages", len(m.plan.dir), len(touched))
	}

	oracle := map[mem.Line]bool{}
	probe := func(l mem.Line) {
		t.Helper()
		if got, want := isPM(m, l), oracle[l]; got != want {
			t.Fatalf("has(%#x) = %v, oracle %v", uint64(l), got, want)
		}
	}
	probeAll := func() {
		t.Helper()
		for _, set := range [][]mem.Line{lines, probes} {
			for _, l := range set {
				probe(l - 1)
				probe(l)
				probe(l + 1)
			}
		}
	}
	probeAll()
	for i, l := range lines {
		markPM(m, l)
		oracle[l] = true
		if i < 64 || i%97 == 0 {
			probeAll()
		}
	}
	probeAll()
}

// pageEnds returns the first and last line of page p.
func pageEnds(p uint64) (first, last mem.Line) {
	return mem.Line(p << pmPageShift), mem.Line((p+1)<<pmPageShift - 1)
}

// TestPMFilterMatchesOracle compares the plan's paged filter with a map on
// adversarial layouts: lines at and just below the lowest touched page,
// both ends of every touched page and of the untouched pages between them,
// the end of the span, two regions a GiB apart as nstore lays them out,
// a single line, extreme line numbers, enough pages to rehash the
// directory several times, and a trace with no persistent stores at all.
func TestPMFilterMatchesOracle(t *testing.T) {
	t.Run("below_base", func(t *testing.T) {
		first, _ := pageEnds(100)
		checkPMFilter(t, []mem.Line{first, first + 5},
			[]mem.Line{first - 1, first - 2, first - pmPageWords*64})
	})
	t.Run("page_ends", func(t *testing.T) {
		var lines, probes []mem.Line
		for p := uint64(7); p < 7+12; p++ {
			first, last := pageEnds(p)
			if p%3 == 0 {
				probes = append(probes, first, last) // untouched page
				continue
			}
			lines = append(lines, first, last)
		}
		checkPMFilter(t, lines, probes)
	})
	t.Run("span_end", func(t *testing.T) {
		first, _ := pageEnds(3)
		_, last := pageEnds(9)
		checkPMFilter(t, []mem.Line{first, first + 64, last},
			[]mem.Line{last + 1, last + pmPageWords*64})
	})
	t.Run("nstore_shape", func(t *testing.T) {
		// nstore's data sits at PM base, its log a GiB above it.
		data := mem.LineOf(0x1000001c0)
		log := mem.LineOf(0x140007f00)
		var lines []mem.Line
		for i := mem.Line(0); i < 300; i++ {
			lines = append(lines, data+i*3, log-i)
		}
		checkPMFilter(t, lines, []mem.Line{(data + log) / 2, mem.LineOf(1 << 24)})
	})
	t.Run("single_line", func(t *testing.T) {
		l := mem.LineOf(1 << 32)
		checkPMFilter(t, []mem.Line{l}, []mem.Line{0, l - 63, l + 63})
	})
	t.Run("extremes", func(t *testing.T) {
		top := mem.Line(^uint64(0) >> 6)
		checkPMFilter(t, []mem.Line{1, top - 1}, []mem.Line{top >> 1, top - 4096})
	})
	t.Run("many_pages", func(t *testing.T) {
		r := rng.New(3)
		var lines []mem.Line
		for i := 0; i < 600; i++ {
			lines = append(lines, mem.Line(r.Uint64()>>20))
		}
		checkPMFilter(t, lines, []mem.Line{0, 1 << 40})
	})
	t.Run("no_persistent_stores", func(t *testing.T) {
		var b trace.Builder
		b.StoreV(1 << 32)
		b.Load(1 << 32)
		m := pmMachine(t, &trace.Trace{Threads: [][]trace.Op{b.Ops()}})
		if m.plan.tokens != 0 || m.plan.pmPages != 0 {
			t.Fatalf("pstores=%d PM pages=%d, want none", m.plan.tokens, m.plan.pmPages)
		}
		for _, l := range []mem.Line{0, mem.LineOf(1 << 32), ^mem.Line(0)} {
			if isPM(m, l) {
				t.Fatalf("isPM(%#x) on an empty filter", uint64(l))
			}
		}
	})
}

// TestPMFilterZeroAlloc: marking and testing PM bits sit on the store and
// LLC-eviction paths, so neither may allocate.
func TestPMFilterZeroAlloc(t *testing.T) {
	lines := []mem.Line{mem.LineOf(0x1000001c0), mem.LineOf(0x140007f00)}
	m := pmMachine(t, pmTrace(lines))
	miss := mem.LineOf(1 << 24)
	if n := testing.AllocsPerRun(100, func() {
		markPM(m, lines[0])
		markPM(m, lines[1])
		if !isPM(m, lines[1]) || isPM(m, miss) {
			t.Fatal("filter lost a mark")
		}
	}); n != 0 {
		t.Fatalf("mark/has allocate %v times per run", n)
	}
}

// TestTraceLinesMatchesOracle pins Compile's plan against maps of the
// lines every workload's loads, stores and lock ops touch — the directory
// presize count, and the distinct sets of each thread's lines in its L1
// and L2 and of all lines in the LLC — each thread's epoch count against
// its fence, lock and strand ops, the persistent-store count against those
// stores, the lock-line table against a map of the lock ops' lines,
// and each controller's PM-line count and the pages given PM mark bits
// against the persistent stores' lines. After a complete run the
// presized directory has not grown, every cache has reached exactly the
// sets reserved, and each NVM table holds exactly its planned lines.
func TestTraceLinesMatchesOracle(t *testing.T) {
	cfg := config.Default()
	il := mem.NewInterleaver(cfg.MCs, cfg.InterleaveBytes)
	setsOf := func(size, ways int) uint64 { return uint64(size / mem.LineSize / ways) }
	for _, wl := range workload.Names() {
		tr, err := workload.Generate(wl, workload.Params{Threads: 2, OpsPerThread: 150, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		want, wantLocks, llcSets := map[mem.Line]bool{}, map[mem.Line]bool{}, map[uint64]bool{}
		pmLines, pmPages := map[mem.Line]bool{}, map[uint64]bool{}
		var l1Sets, l2Sets, epochs []int
		tokens := 0
		for _, ops := range tr.Threads {
			l1, l2 := map[uint64]bool{}, map[uint64]bool{}
			epochs = append(epochs, 2)
			for _, op := range ops {
				switch op.Kind {
				case trace.OpAcquire, trace.OpRelease:
					epochs[len(epochs)-1]++
					wantLocks[mem.LineOf(op.Addr)] = true
				case trace.OpStore:
					if op.Persistent {
						tokens++
						pmLines[mem.LineOf(op.Addr)] = true
						pmPages[uint64(mem.LineOf(op.Addr))>>pmPageShift] = true
					}
				case trace.OpLoad:
				case trace.OpOfence, trace.OpDfence, trace.OpStrand:
					epochs[len(epochs)-1]++
					continue
				default:
					continue
				}
				l := mem.LineOf(op.Addr)
				want[l] = true
				l1[uint64(l)%setsOf(cfg.L1Size, cfg.L1Ways)] = true
				l2[uint64(l)%setsOf(cfg.L2Size, cfg.L2Ways)] = true
				llcSets[uint64(l)%setsOf(cfg.LLCSize, cfg.LLCWays)] = true
			}
			l1Sets, l2Sets = append(l1Sets, len(l1)), append(l2Sets, len(l2))
		}
		got, err := Compile(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		locks := got.lockLines
		if got.lines != len(want) {
			t.Fatalf("%s: the plan counts %d lines, want %d", wl, got.lines, len(want))
		}
		if !slices.Equal(got.epochs, epochs) || got.tokens != tokens {
			t.Fatalf("%s: the plan counts epochs %v and persistent stores %v, want %v and %v",
				wl, got.epochs, got.tokens, epochs, tokens)
		}
		if !slices.Equal(got.l1Sets, l1Sets) || !slices.Equal(got.l2Sets, l2Sets) || got.llcSets != len(llcSets) {
			t.Fatalf("%s: the plan counts L1 sets %v, L2 sets %v, LLC sets %d; want %v, %v, %d",
				wl, got.l1Sets, got.l2Sets, got.llcSets, l1Sets, l2Sets, len(llcSets))
		}
		perMC := make([]int, cfg.MCs)
		for l := range pmLines {
			perMC[il.Home(l)]++
		}
		if !slices.Equal(got.pmLines, perMC) {
			t.Fatalf("%s: the plan counts PM lines %v per controller, want %v", wl, got.pmLines, perMC)
		}
		marked := map[uint32]bool{}
		for _, s := range got.dir {
			if s.pm != 0 {
				if !pmPages[s.key-1] || marked[s.pm] || s.pm > uint32(got.pmPages) {
					t.Fatalf("%s: page %d holds mark bits %d, but no persistent store touches it or another page holds them", wl, s.key-1, s.pm)
				}
				marked[s.pm] = true
			}
		}
		if got.pmPages != len(pmPages) || len(marked) != len(pmPages) {
			t.Fatalf("%s: the plan gives %d of %d pages mark bits, want the %d persistent stores touch",
				wl, len(marked), got.pmPages, len(pmPages))
		}
		if !slices.IsSorted(locks) || len(slices.Compact(slices.Clone(locks))) != len(locks) {
			t.Fatalf("%s: lock lines %v are not strictly ascending", wl, locks)
		}
		if len(locks) != len(wantLocks) {
			t.Fatalf("%s: %d lock lines, want %d", wl, len(locks), len(wantLocks))
		}
		for _, l := range locks {
			if !wantLocks[l] {
				t.Fatalf("%s: lock line %d is no lock line of the trace", wl, l)
			}
		}
		m, err := New(cfg, "hops_rp", tr)
		if err != nil {
			t.Fatal(err)
		}
		before := m.Hier.Directory().Capacity()
		m.Run(0)
		if after := m.Hier.Directory().Capacity(); after != before {
			t.Fatalf("%s: presized directory grew from %d to %d slots", wl, before, after)
		}
		checkReservations(t, wl+"/hops_rp", m, true)
		for i, mc := range m.MCs {
			if n := len(mc.NVM.Snapshot()); n != perMC[i] {
				t.Fatalf("%s: controller %d's NVM holds %d lines after the run, its plan %d", wl, i, n, perMC[i])
			}
		}
	}
}

// checkReservations fails t if a cache of m's hierarchy reached more sets
// than machine construction reserved, or, when exact is set (a complete
// run), fewer.
func checkReservations(t *testing.T, what string, m *Machine, exact bool) {
	t.Helper()
	check := func(name string, c *cache.SetAssoc) {
		if used, res := c.Used(), c.Reserved(); used > res || exact && used != res {
			t.Fatalf("%s: %s reached %d sets, reserved %d", what, name, used, res)
		}
	}
	for core := 0; core < m.Cfg.Cores; core++ {
		check(fmt.Sprintf("L1[%d]", core), m.Hier.L1(core))
		check(fmt.Sprintf("L2[%d]", core), m.Hier.L2(core))
	}
	check("LLC", m.Hier.LLC())
}

// TestSlabsStayWithinReservation runs every Figure 8 workload under every
// model at the Figure 8 scale (four threads of 80 operations): no cache's
// slab may grow past what construction reserved from the trace, and a
// complete run reaches exactly the reserved sets.
func TestSlabsStayWithinReservation(t *testing.T) {
	p := workload.Default()
	p.OpsPerThread = 80
	for _, wl := range workload.Names() {
		if wl == "bandwidth" {
			continue // the microbenchmark of Figure 10, not a Figure 8 workload
		}
		tr, err := workload.Generate(wl, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, mn := range model.ExtendedNames() {
			m, err := New(config.Default(), mn, tr)
			if err != nil {
				t.Fatal(err)
			}
			m.Run(0)
			checkReservations(t, wl+"/"+mn, m, true)
		}
	}
}
