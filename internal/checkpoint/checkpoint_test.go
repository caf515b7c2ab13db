package checkpoint

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/rng"
	"asap/internal/workload"
)

// diffCase is one (workload, model) cell of the differential matrix.
type diffCase struct {
	wl string
	p  workload.Params
}

// diffWorkloads samples the generator families: a hash table (pure persist
// traffic), a lock-heavy logger, a queue with cross-thread dependencies,
// and a strand-annotated hash table and tree, whose OpStrand boundaries
// give StrandWeaver strands to fork and save.
func diffWorkloads() []diffCase {
	return []diffCase{
		{wl: "cceh", p: workload.Params{Threads: 2, OpsPerThread: 120, Seed: 7}},
		{wl: "atlas_queue", p: workload.Params{Threads: 3, OpsPerThread: 80, Seed: 11}},
		{wl: "echo", p: workload.Params{Threads: 2, OpsPerThread: 100, Seed: 3}},
		{wl: "dash_eh", p: workload.Params{Threads: 2, OpsPerThread: 100, Seed: 5, Strands: true}},
		{wl: "p_art", p: workload.Params{Threads: 2, OpsPerThread: 100, Seed: 5, Strands: true}},
	}
}

// summarize flattens everything a run observably produces: the Result
// scalars, the full stats set (counters and distributions), and every
// controller's NVM image.
type runSummary struct {
	Res      machine.Result
	Stats    string
	NVM      []map[uint64]uint64
	PMWrites []uint64
	PMReads  []uint64
}

func summarize(m *machine.Machine, res machine.Result) runSummary {
	s := runSummary{Res: res, Stats: res.Stats.String()}
	s.Res.Stats = nil // compared via the rendered form
	for _, mc := range m.MCs {
		img := make(map[uint64]uint64)
		for l, tok := range mc.NVM.Snapshot() {
			img[uint64(l)] = uint64(tok)
		}
		s.NVM = append(s.NVM, img)
		s.PMWrites = append(s.PMWrites, mc.NVM.Writes())
		s.PMReads = append(s.PMReads, mc.NVM.Reads())
	}
	return s
}

// TestForkDifferential is the tentpole's correctness pin: for every model ×
// a workload sample, a machine advanced to a randomized mid-run cycle,
// captured, run to completion, then forked (twice) and run to completion
// again must reproduce the uninterrupted run byte-identically — Result,
// stats counters and distributions, and the final NVM image of every
// controller. Runs under -race like the rest of the suite.
func TestForkDifferential(t *testing.T) {
	cfg := config.Default()
	for _, mn := range model.ExtendedNames() {
		for _, c := range diffWorkloads() {
			t.Run(mn+"/"+c.wl, func(t *testing.T) {
				t.Parallel()
				tr, err := workload.Generate(c.wl, c.p)
				if err != nil {
					t.Fatalf("generate: %v", err)
				}

				// Uninterrupted oracle.
				mA, err := machine.New(cfg, mn, tr)
				if err != nil {
					t.Fatalf("new: %v", err)
				}
				resA := mA.Run(0)
				want := summarize(mA, resA)

				// Checkpointed run: advance to a randomized mid-run cycle,
				// capture, finish; then rewind and finish twice more.
				mB, err := machine.New(cfg, mn, tr)
				if err != nil {
					t.Fatalf("new: %v", err)
				}
				r := rng.New(uint64(len(mn))*1e9 + c.p.Seed)
				cut := 1 + r.Uint64n(resA.Cycles)
				mB.Advance(cut)
				cp, err := Capture(mB)
				if err != nil {
					t.Fatalf("capture: %v", err)
				}
				if cp.Cycle() != cut {
					t.Fatalf("capture cycle %d, want %d", cp.Cycle(), cut)
				}
				compare(t, "continue", want, summarize(mB, mB.Run(0)))
				for fork := 0; fork < 2; fork++ {
					fm := cp.Fork()
					compare(t, "fork", want, summarize(fm, fm.Run(0)))
				}
			})
		}
	}
}

// TestForkFromCycleZero pins forks of a checkpoint captured before any
// cache storage exists (each cache allocates its slab on its first
// insert): the restore drops the storage the run since allocated, and the
// next first insert allocates it again. Two forks of the cycle-0 capture,
// and two of a Recapture moved from it to mid-run, must each reproduce the
// uninterrupted run.
func TestForkFromCycleZero(t *testing.T) {
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

				mB, err := machine.New(cfg, mn, tr)
				if err != nil {
					t.Fatalf("new: %v", err)
				}
				if n := mB.Hier.LLC().Used(); n != 0 {
					t.Fatalf("a new machine's LLC holds %d sets", n)
				}
				cp, err := Capture(mB)
				if err != nil {
					t.Fatalf("capture: %v", err)
				}
				for fork := 0; fork < 2; fork++ {
					fm := cp.Fork()
					if n := fm.Hier.LLC().Used(); n != 0 {
						t.Fatalf("fork %d of the cycle-0 capture starts with %d LLC sets", fork, n)
					}
					compare(t, "fork from cycle 0", want, summarize(fm, fm.Run(0)))
				}
				cp.Fork().Advance(resA.Cycles / 2)
				cp.Recapture()
				for fork := 0; fork < 2; fork++ {
					fm := cp.Fork()
					compare(t, "fork after recapture from cycle 0", want, summarize(fm, fm.Run(0)))
				}
			})
		}
	}
}

func compare(t *testing.T, phase string, want, got runSummary) {
	t.Helper()
	if !reflect.DeepEqual(want.Res, got.Res) {
		t.Errorf("%s: result diverged:\nwant %+v\ngot  %+v", phase, want.Res, got.Res)
	}
	if want.Stats != got.Stats {
		t.Errorf("%s: stats diverged:\nwant:\n%s\ngot:\n%s", phase, want.Stats, got.Stats)
	}
	if !reflect.DeepEqual(want.NVM, got.NVM) {
		t.Errorf("%s: NVM image diverged", phase)
	}
	if !reflect.DeepEqual(want.PMWrites, got.PMWrites) || !reflect.DeepEqual(want.PMReads, got.PMReads) {
		t.Errorf("%s: PM traffic diverged: want w=%v r=%v, got w=%v r=%v",
			phase, want.PMWrites, want.PMReads, got.PMWrites, got.PMReads)
	}
}

// TestCaptureSkipsSharedTrace pins that a snapshot never covers the
// *machine.Plan or the trace it holds: machines reset from one plan share
// both, so restoring either would race between machines forked
// concurrently. Two machines of different models are built from one plan
// and captured mid-run; their forks then run at the same time (under
// -race a write to the shared plan shows), and each must reproduce the
// run of a machine New builds alone.
func TestCaptureSkipsSharedTrace(t *testing.T) {
	tr, err := workload.Generate("cceh", workload.Params{Threads: 2, OpsPerThread: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := machine.Compile(config.Default(), tr)
	if err != nil {
		t.Fatal(err)
	}
	models := []string{model.NameASAPEP, model.NameHOPSRP}
	cps := make([]*Checkpoint, len(models))
	for i, mn := range models {
		m, err := machine.NewFromPlan(p, mn)
		if err != nil {
			t.Fatal(err)
		}
		m.Advance(500)
		if cps[i], err = Capture(m); err != nil {
			t.Fatal(err)
		}
		for _, r := range cps[i].w.regions {
			if r.typ == reflect.TypeOf(*p) || r.typ == reflect.TypeOf(*tr) {
				t.Fatalf("%s: the shared %v was captured as a region", mn, r.typ)
			}
		}
		for _, s := range cps[i].w.slices {
			if s.ptr == unsafe.Pointer(&tr.Threads) {
				t.Fatalf("%s: the shared trace's thread list was captured", mn)
			}
		}
	}
	got := make([]runSummary, len(models))
	var wg sync.WaitGroup
	for i := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fm := cps[i].Fork()
			got[i] = summarize(fm, fm.Run(0))
		}()
	}
	wg.Wait()
	for i, mn := range models {
		m, err := machine.New(config.Default(), mn, tr)
		if err != nil {
			t.Fatal(err)
		}
		compare(t, mn+" fork beside another model's", summarize(m, m.Run(0)), got[i])
	}
}
