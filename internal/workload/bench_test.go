package workload

import "testing"

// fig8Params is one Figure 8 run's workload shape at the harness's
// benchmark scale (asapfig -ops 80): four threads of 80 operations.
func fig8Params() Params {
	p := Default()
	p.OpsPerThread = 80
	return p
}

// BenchmarkGenerate measures building one workload's trace at Figure 8
// scale — the per-workload cost every harness pays before any simulation
// (pmds heap, structure, recorded and compiled trace). B/op is the rung
// that shows the heap's footprint.
func BenchmarkGenerate(b *testing.B) {
	p := fig8Params()
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(name, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
