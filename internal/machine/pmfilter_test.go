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

// checkPMFilter replays lines through a filter and a map oracle, marking
// them in trace order as the machine does, and after every mark compares
// has on the marked lines, every probe and each one's neighbours. It also
// checks that the filter's bits are exactly one page per touched page.
func checkPMFilter(t *testing.T, lines, probes []mem.Line) {
	t.Helper()
	f, pstores := newPMFilter(pmTrace(lines))
	if pstores != len(lines) {
		t.Fatalf("pre-scan counted %d persistent stores, want %d", pstores, len(lines))
	}
	pages := map[uint64]bool{}
	for _, l := range lines {
		pages[uint64(l)>>pmPageShift] = true
	}
	if len(f.bits) != len(pages)*pmPageWords {
		t.Fatalf("filter holds %d words of bits for %d touched pages, want %d",
			len(f.bits), len(pages), len(pages)*pmPageWords)
	}
	if len(f.dir) > max(pmInitSlots, 4*len(pages)) {
		t.Fatalf("directory has %d slots for %d touched pages", len(f.dir), len(pages))
	}

	oracle := map[mem.Line]bool{}
	probe := func(l mem.Line) {
		t.Helper()
		if got, want := f.has(l), oracle[l]; got != want {
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
		f.mark(l)
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

// TestPMFilterMatchesOracle compares the paged filter with a map on
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
		f, pstores := newPMFilter(&trace.Trace{Threads: [][]trace.Op{b.Ops()}})
		if pstores != 0 || len(f.bits) != 0 {
			t.Fatalf("pstores=%d bits=%d, want none", pstores, len(f.bits))
		}
		for _, l := range []mem.Line{0, mem.LineOf(1 << 32), ^mem.Line(0)} {
			if f.has(l) {
				t.Fatalf("has(%#x) on an empty filter", uint64(l))
			}
		}
	})
}

// TestPMFilterZeroAlloc: mark and has sit on the store and LLC-eviction
// paths, so neither may allocate.
func TestPMFilterZeroAlloc(t *testing.T) {
	lines := []mem.Line{mem.LineOf(0x1000001c0), mem.LineOf(0x140007f00)}
	f, _ := newPMFilter(pmTrace(lines))
	miss := mem.LineOf(1 << 24)
	if n := testing.AllocsPerRun(100, func() {
		f.mark(lines[0])
		f.mark(lines[1])
		if !f.has(lines[1]) || f.has(miss) {
			t.Fatal("filter lost a mark")
		}
	}); n != 0 {
		t.Fatalf("mark/has allocate %v times per run", n)
	}
}

// TestTraceLinesMatchesOracle pins the footprint against maps of the
// lines every workload's loads, stores and lock ops touch — the directory
// presize count, and the distinct sets of each thread's lines in its L1
// and L2 and of all lines in the LLC — each thread's epoch count against
// its fence, lock and strand ops, and the lock-line table against a map
// of the lock ops' lines. After a complete run the presized directory
// has not grown and every cache has reached exactly the sets reserved.
func TestTraceLinesMatchesOracle(t *testing.T) {
	cfg := config.Default()
	setsOf := func(size, ways int) uint64 { return uint64(size / mem.LineSize / ways) }
	for _, wl := range workload.Names() {
		tr, err := workload.Generate(wl, workload.Params{Threads: 2, OpsPerThread: 150, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		want, wantLocks, llcSets := map[mem.Line]bool{}, map[mem.Line]bool{}, map[uint64]bool{}
		var l1Sets, l2Sets, epochs []int
		for _, ops := range tr.Threads {
			l1, l2 := map[uint64]bool{}, map[uint64]bool{}
			epochs = append(epochs, 2)
			for _, op := range ops {
				switch op.Kind {
				case trace.OpAcquire, trace.OpRelease:
					epochs[len(epochs)-1]++
					wantLocks[mem.LineOf(op.Addr)] = true
				case trace.OpLoad, trace.OpStore:
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
		got, locks := traceLines(tr, cfg)
		if got.lines != len(want) {
			t.Fatalf("%s: traceLines counts %d lines, want %d", wl, got.lines, len(want))
		}
		if !slices.Equal(got.epochs, epochs) {
			t.Fatalf("%s: traceLines counts epochs %v, want %v", wl, got.epochs, epochs)
		}
		if !slices.Equal(got.l1Sets, l1Sets) || !slices.Equal(got.l2Sets, l2Sets) || got.llcSets != len(llcSets) {
			t.Fatalf("%s: traceLines counts L1 sets %v, L2 sets %v, LLC sets %d; want %v, %v, %d",
				wl, got.l1Sets, got.l2Sets, got.llcSets, l1Sets, l2Sets, len(llcSets))
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
