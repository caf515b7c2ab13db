package machine

import (
	"runtime"
	"testing"

	"asap/internal/config"
	"asap/internal/workload"
)

// BenchmarkMachineOps measures end-to-end op dispatch through a full
// machine running the ASAP model — core tick, cache access, persist-path
// scheduling and controller service — reported per trace op. This is the
// composite figure the hot-path allocation purge targets; benchdiff gates
// its ns/op and allocs/op.
func BenchmarkMachineOps(b *testing.B) {
	tr := smallTrace(4, 2000, 7)
	ops := tr.TotalOps()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for n < b.N {
		b.StopTimer()
		m, err := New(config.Default(), "asap_ep", tr)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		m.Run(0)
		n += ops
	}
}

// BenchmarkMachineNew measures building one asap_ep machine per Table III
// workload (and the bandwidth micro) at Figure 8 scale: four threads of 80
// operations, as asapfig -ops 80 runs them. The trace is generated once
// outside the loop, so this is the construction cost a run on a new
// machine pays — the trace's plan, cache hierarchy, controllers, model
// and ledger.
func BenchmarkMachineNew(b *testing.B) {
	p := workload.Default()
	p.OpsPerThread = 80
	for _, name := range workload.Names() {
		tr, err := workload.Generate(name, p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(config.Default(), "asap_ep", tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMachineReset measures resetting one asap_ep machine for each
// workload of BenchmarkMachineNew, at its scale: the construction cost a
// run pays on a machine the harness pool reuses, from a plan the harness
// compiled once for the trace. Before timing, the machine runs every
// trace once, so its storage fits the largest, as in a pool that has
// served a figure; each measured Reset follows an untimed complete run of
// the trace it resets for and a GC, so no collection of the run's garbage
// lands in the timed reset.
func BenchmarkMachineReset(b *testing.B) {
	p := workload.Default()
	p.OpsPerThread = 80
	names := workload.Names()
	plans := make([]*Plan, len(names))
	for i, name := range names {
		tr, err := workload.Generate(name, p)
		if err != nil {
			b.Fatal(err)
		}
		if plans[i], err = Compile(config.Default(), tr); err != nil {
			b.Fatal(err)
		}
	}
	m, err := NewFromPlan(plans[0], "asap_ep")
	if err != nil {
		b.Fatal(err)
	}
	for _, pl := range plans {
		if err := m.Reset(pl); err != nil {
			b.Fatal(err)
		}
		m.Run(0)
	}
	for i, name := range names {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				m.Run(0)
				runtime.GC()
				b.StartTimer()
				if err := m.Reset(plans[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
