package checkpoint

import (
	"reflect"
	"testing"
	"unsafe"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/mem"
	"asap/internal/model"
	"asap/internal/rng"
	"asap/internal/sim"
	"asap/internal/workload"
)

// TestRecaptureDifferential pins Recapture in the crash campaign's shape:
// one Checkpoint captured early, then moved forward through three
// increasing cuts by Fork → Advance → Recapture. After every Recapture two
// forks run to completion and must reproduce the uninterrupted run
// byte-identically (Result, stats, NVM image, PM traffic). The second cut
// is a busy instant (some captured slice or arena extent holds more than
// at the end of the run) and the third is the drained end, so the
// last Recapture refills storage with less than it held; the test checks
// that this happens, which is what shows truncated storage carries no
// stale state into a fork.
func TestRecaptureDifferential(t *testing.T) {
	cfg := config.Default()
	for _, mn := range model.ExtendedNames() {
		for _, c := range diffWorkloads() {
			t.Run(mn+"/"+c.wl, func(t *testing.T) {
				t.Parallel()
				tr, err := workload.Generate(c.wl, c.p)
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				mA, err := machine.New(cfg, mn, tr)
				if err != nil {
					t.Fatalf("new: %v", err)
				}
				resA := mA.Run(0)
				want := summarize(mA, resA)
				end := resA.Cycles

				r := rng.New(uint64(len(mn))*1e9 + c.p.Seed + 1)
				first := 1 + r.Uint64n(end/4)
				mid := first + 1 + r.Uint64n((end-first)/2)
				cuts := []sim.Cycles{mid, busyCut(t, cfg, mn, c, mid+1, end), end}

				mB, err := machine.New(cfg, mn, tr)
				if err != nil {
					t.Fatalf("new: %v", err)
				}
				mB.Advance(first)
				cp, err := Capture(mB)
				if err != nil {
					t.Fatalf("capture: %v", err)
				}
				shrank := false
				for _, cut := range cuts {
					before := captureLens(&cp.w)
					cp.Fork().Advance(cut)
					cp.Recapture()
					if cp.Cycle() != cut {
						t.Fatalf("recapture cycle %d, want %d", cp.Cycle(), cut)
					}
					shrank = shrank || longer(before, captureLens(&cp.w))
					for fork := 0; fork < 2; fork++ {
						fm := cp.Fork()
						compare(t, "fork after recapture", want, summarize(fm, fm.Run(0)))
					}
				}
				if !shrank {
					t.Errorf("no captured extent shrank between recaptures (cuts %d then %v)", first, cuts)
				}
			})
		}
	}
}

// busyCut returns the first cycle at or after from, probed in steps of
// about end/64, at which some captured extent of the run is longer
// than at its end. The run is deterministic, so the instant found on this
// probe machine is busy on every machine built from the same inputs.
func busyCut(t *testing.T, cfg config.Config, mn string, c diffCase, from, end sim.Cycles) sim.Cycles {
	t.Helper()
	tr, err := workload.Generate(c.wl, c.p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	m, err := machine.New(cfg, mn, tr)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	m.Advance(from)
	start, err := Capture(m)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	m.Advance(end)
	probe, err := Capture(m)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	atEnd := captureLens(&probe.w)
	step := max(end/64, 1)
	m = start.Fork()
	for at := from; at < end; at += step {
		m.Advance(at)
		probe.Recapture()
		if longer(captureLens(&probe.w), atEnd) {
			return at
		}
	}
	t.Fatalf("no instant in [%d, %d) holds more in any captured extent than the end of the run", from, end)
	return 0
}

// lenKey names one captured extent: a non-POD slice by its header
// address, or a raw arena extent by its destination.
type lenKey struct {
	ptr unsafe.Pointer
	raw bool
}

// longer reports whether some captured extent in a is longer than in b.
// A raw extent only counts if b has it too: a POD slice that grew into a
// new backing array leaves its old destination behind, which is no shrink.
func longer(a, b map[lenKey]int) bool {
	for k, n := range a {
		m, ok := b[k]
		if n > m && (ok || !k.raw) {
			return true
		}
	}
	return false
}

// captureLens maps each captured extent of w's snapshot to its length;
// absent means empty.
func captureLens(w *walker) map[lenKey]int {
	lens := make(map[lenKey]int)
	for _, r := range w.raw {
		lens[lenKey{r.dst, true}] = r.n
	}
	for _, s := range w.slices {
		lens[lenKey{s.ptr, false}] = s.data.Elem().Len()
	}
	return lens
}

// recaptureAllocBound caps the allocations of one steady-state Recapture.
// It allocates nothing today — arena, action slices, region shadows and
// slice copies all come from the previous snapshot — and the slack only
// absorbs runtime-internal maintenance of the walker's pools. A capture from empty allocates
// hundreds of objects, so any return to fresh per-capture buffers fails.
const recaptureAllocBound = 4

// TestRecaptureReusesStorage pins the storage reuse: recapturing an
// unchanged machine must neither grow nor move the arena, and allocates at
// most recaptureAllocBound objects.
func TestRecaptureReusesStorage(t *testing.T) {
	tr, err := workload.Generate("cceh", workload.Params{Threads: 2, OpsPerThread: 150, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(config.Default(), model.NameASAPEP, tr)
	if err != nil {
		t.Fatal(err)
	}
	m.Advance(2000)
	cp, err := Capture(m)
	if err != nil {
		t.Fatal(err)
	}
	fresh := testing.AllocsPerRun(1, func() {
		if _, err := Capture(m); err != nil {
			t.Fatal(err)
		}
	})
	for i := 0; i < 3; i++ {
		cp.Recapture()
	}
	arena := cp.w.arena
	counts := actionCounts(&cp.w)
	allocs := testing.AllocsPerRun(20, cp.Recapture)
	if got := actionCounts(&cp.w); got != counts {
		t.Errorf("restore action counts moved on an unchanged machine: %v -> %v", counts, got)
	}
	if len(cp.w.arena) != len(arena) || cap(cp.w.arena) != cap(arena) ||
		unsafe.SliceData(cp.w.arena) != unsafe.SliceData(arena) {
		t.Errorf("arena moved or resized on an unchanged machine: len/cap %d/%d -> %d/%d",
			len(arena), cap(arena), len(cp.w.arena), cap(cp.w.arena))
	}
	if allocs > recaptureAllocBound {
		t.Errorf("Recapture allocated %.0f objects, want <= %d (a fresh Capture allocates %.0f)",
			allocs, recaptureAllocBound, fresh)
	}
	t.Logf("Recapture: %.0f allocs, Capture: %.0f allocs, arena %d bytes", allocs, fresh, len(arena))
}

// shrinkState is a small object graph holding one of each kind of storage
// a recapture refills: a non-POD slice, non-POD slices nested in its
// pointees, and POD slices in the arena, at top level and in pointees.
type shrinkState struct {
	ptrs  []*shrinkNode
	lists [][]*shrinkNode
	pod   []uint64
}

type shrinkNode struct {
	v     int
	lines []mem.Line
}

func newShrinkState(n, tag int) *shrinkState {
	s := &shrinkState{}
	for i := 0; i < n; i++ {
		nd := &shrinkNode{v: tag*100 + i, lines: []mem.Line{mem.Line(tag), mem.Line(i)}}
		s.ptrs = append(s.ptrs, nd)
		s.lists = append(s.lists, []*shrinkNode{nd, nd})
		s.pod = append(s.pod, uint64(tag*100+i))
	}
	return s
}

// TestRecaptureShrinks pins, for every kind of reused storage, that a
// recapture holding fewer elements than the capture before it restores
// exactly the smaller state: no entry of the larger snapshot survives in
// the truncated storage, and the pools keep nothing for objects the
// recapture no longer reaches.
func TestRecaptureShrinks(t *testing.T) {
	root := newShrinkState(8, 1)
	var w walker
	capture := func(w *walker) { w.capture(unsafe.Pointer(root), reflect.TypeOf(*root)) }
	capture(&w)
	*root = *newShrinkState(2, 2)
	want := newShrinkState(2, 2)
	capture(&w)
	var fresh walker
	capture(&fresh)
	if got, want := poolSizes(&w), poolSizes(&fresh); got != want {
		t.Errorf("pool sizes after a shrinking recapture %v, a fresh capture has %v", got, want)
	}
	if got, want := actionCounts(&w), actionCounts(&fresh); got != want {
		t.Errorf("action counts after a shrinking recapture %v, a fresh capture has %v", got, want)
	}
	for _, e := range w.slicePool {
		checkTailZero(t, e.v)
	}
	*root = *newShrinkState(5, 3)
	w.restore()
	if !reflect.DeepEqual(root, want) {
		t.Fatalf("restore after a shrinking recapture:\ngot  %+v\nwant %+v", root, want)
	}
}

// actionCounts is the length of each of w's restore action lists.
func actionCounts(w *walker) [3]int {
	return [3]int{len(w.raw), len(w.regions), len(w.slices)}
}

// poolSizes is the number of objects each of w's pools keeps storage for.
func poolSizes(w *walker) [2]int {
	return [2]int{len(w.regionPool), len(w.slicePool)}
}

// checkTailZero fails t unless the kept slice p points to holds only zero
// values past its length: truncated storage must not pin stale objects.
func checkTailZero(t *testing.T, p reflect.Value) {
	t.Helper()
	s := p.Elem()
	full := s.Slice(0, s.Cap())
	for i := s.Len(); i < s.Cap(); i++ {
		if !full.Index(i).IsZero() {
			t.Errorf("%v kept past its length %d: element %d is %v", s.Type(), s.Len(), i, full.Index(i))
			return
		}
	}
}
