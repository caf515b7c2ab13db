package machine

import (
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
// outside the loop, so this is the construction cost every run pays —
// cache hierarchy, controllers, model, ledger and PM-line filter.
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
