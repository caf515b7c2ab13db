package machine

import (
	"testing"

	"asap/internal/mem"
	"asap/internal/rng"
	"asap/internal/trace"
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
