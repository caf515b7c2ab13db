package checkpoint

import (
	"testing"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/workload"
)

// BenchmarkCheckpointRoundtrip measures one full Save+Load cycle on a
// mid-run asap_ep/cceh machine at cycle 400 — the unit of
// work a checkpoint-resume or image-based campaign pays per image. The
// committed baseline gates its time and allocs/op via cmd/benchdiff.
func BenchmarkCheckpointRoundtrip(b *testing.B) {
	tr, err := workload.Generate("cceh", workload.Params{Threads: 2, OpsPerThread: 150, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(config.Default(), model.NameASAPEP, tr)
	if err != nil {
		b.Fatal(err)
	}
	m.Advance(400)
	img, err := Save(m)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("image: %d bytes at cycle 400", len(img))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := Save(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Load(img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRecapture measures one Recapture+Fork on a mid-run
// asap_ep/cceh machine: the unit of work a crash campaign pays each time
// its frontier checkpoint moves forward, in the steady state where the
// previous snapshot's storage is reused. The committed baseline gates its
// time, allocs/op and B/op via cmd/benchdiff.
func BenchmarkCheckpointRecapture(b *testing.B) {
	tr, err := workload.Generate("cceh", workload.Params{Threads: 2, OpsPerThread: 150, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(config.Default(), model.NameASAPEP, tr)
	if err != nil {
		b.Fatal(err)
	}
	m.Advance(2000)
	cp, err := Capture(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp.Recapture()
		cp.Fork()
	}
}
