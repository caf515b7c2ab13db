package checkpoint

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/mem"
	"asap/internal/model"
	"asap/internal/trace"
	"asap/internal/workload"
)

// resetTraces returns the Figure 8 workloads at four threads plus the
// strand-annotated p_art case, in ascending order of the distinct lines
// they touch.
func resetTraces(t *testing.T, ops int) []*trace.Trace {
	t.Helper()
	type sized struct {
		tr    *trace.Trace
		lines int
	}
	var all []sized
	add := func(wl string, p workload.Params) {
		tr, err := workload.Generate(wl, p)
		if err != nil {
			t.Fatalf("generate %s: %v", wl, err)
		}
		seen := make(map[mem.Line]bool)
		for _, ops := range tr.Threads {
			for _, op := range ops {
				if op.Kind != trace.OpCompute {
					seen[mem.LineOf(op.Addr)] = true
				}
			}
		}
		all = append(all, sized{tr, len(seen)})
	}
	for _, wl := range workload.Names() {
		if wl != "bandwidth" {
			add(wl, workload.Params{Threads: 4, OpsPerThread: ops, Seed: 9})
		}
	}
	add("p_art", workload.Params{Threads: 2, OpsPerThread: ops, Seed: 5, Strands: true})
	slices.SortStableFunc(all, func(a, b sized) int { return a.lines - b.lines })
	out := make([]*trace.Trace, len(all))
	for i, s := range all {
		out[i] = s.tr
	}
	return out
}

// TestResetDifferential pins Machine.Reset against New. For every model,
// one machine is reset through the Figure 8 workloads and a strand case,
// from the smallest footprint to the largest and back, so storage left
// behind by a larger trace meets a smaller one and a smaller trace's
// storage must grow. Each trace is compiled once per config, and its one
// plan is reset into the machines of all models, which run in parallel.
// At every step the reset machine must save to the same image as a
// machine New builds for the trace, before Run and after, and produce the
// same Result, stats and NVM image. Every third trace is
// cut by CrashNow at mid-run instead, so the next Reset starts from a
// halted engine, crash-flushed controllers and a set Crashed flag; on
// another third, a fork of the reset machine captured at cycle 0 must
// reproduce the run too.
func TestResetDifferential(t *testing.T) {
	traces := resetTraces(t, 40)
	order := append(slices.Clone(traces), traces[:len(traces)-1]...)
	slices.Reverse(order[len(traces):])
	// The small machine's LLC evicts on nearly every fill, and its
	// recovery table and write-back buffers fill up, so its runs leave
	// parked evictions, NACK filter counts and delay records to clear.
	small := config.Default()
	small.LLCSize, small.LLCWays = 64*32, 2
	small.L2Size, small.L2Ways = 64*64, 4
	small.RTEntries, small.WPQEntries = 4, 4
	for _, mc := range []struct {
		name string
		cfg  config.Config
	}{{"default", config.Default()}, {"small", small}} {
		plans := make([]*machine.Plan, len(order))
		for i, tr := range order {
			var err error
			if plans[i], err = machine.Compile(mc.cfg, tr); err != nil {
				t.Fatal(err)
			}
		}
		for _, mn := range model.ExtendedNames() {
			t.Run(mc.name+"/"+mn, func(t *testing.T) {
				resetSequence(t, mc.cfg, mn, order, plans)
			})
		}
	}
}

// resetSequence runs TestResetDifferential's sequence for one config and
// model, over the plans of order compiled for that config.
func resetSequence(t *testing.T, cfg config.Config, mn string, order []*trace.Trace, plans []*machine.Plan) {
	t.Parallel()
	var reused *machine.Machine
	for i, tr := range order {
		step, p := fmt.Sprintf("step %d", i), plans[i]
		fresh, err := machine.New(cfg, mn, tr)
		if err != nil {
			t.Fatalf("%s: new: %v", step, err)
		}
		if reused == nil {
			if reused, err = machine.NewFromPlan(p, mn); err != nil {
				t.Fatalf("%s: new: %v", step, err)
			}
		} else if err := reused.Reset(p); err != nil {
			t.Fatalf("%s: reset: %v", step, err)
		}
		sameImage(t, step+" before run", fresh, reused)
		switch i % 3 {
		case 0:
			compare(t, step, summarize(fresh, fresh.Run(0)), summarize(reused, reused.Run(0)))
		case 1:
			// A fork of the cycle-0 instant finds the storage Reset kept
			// written by the run after the capture.
			cp, err := Capture(reused)
			if err != nil {
				t.Fatalf("%s: capture: %v", step, err)
			}
			want := summarize(fresh, fresh.Run(0))
			compare(t, step, want, summarize(reused, reused.Run(0)))
			fm := cp.Fork()
			compare(t, step+" fork from cycle 0", want, summarize(fm, fm.Run(0)))
		case 2:
			at := fresh.Run(0).Cycles/2 + 1
			fresh, _ = machine.New(cfg, mn, tr)
			fresh.CrashNow(at)
			reused.CrashNow(at)
			compare(t, step+" crash", summarize(fresh, fresh.Run(0)), summarize(reused, reused.Run(0)))
		}
		sameImage(t, step+" after run", fresh, reused)
		if t.Failed() {
			return
		}
	}
}

// sameImage fails unless a and b save to the same checkpoint image.
func sameImage(t *testing.T, phase string, a, b *machine.Machine) {
	t.Helper()
	ia, err := Save(a)
	if err != nil {
		t.Fatalf("%s: save new machine: %v", phase, err)
	}
	ib, err := Save(b)
	if err != nil {
		t.Fatalf("%s: save reset machine: %v", phase, err)
	}
	if !bytes.Equal(ia, ib) {
		head := len(imageMagic) + 1 + 32 // magic, version, digest
		off := head
		for off < min(len(ia), len(ib)) && ia[off] == ib[off] {
			off++
		}
		t.Errorf("%s: the reset machine's image differs from the new machine's at byte %d", phase, off)
	}
}
