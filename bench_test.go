package asap

// Benchmarks regenerating the paper's evaluation: one benchmark per figure
// and table of §VII plus the ablation studies from DESIGN.md. Each reported
// iteration regenerates the full experiment at benchmark scale; run
//
//	go test -bench=. -benchmem
//
// for the whole suite, or e.g. -bench=BenchmarkFig8 for one figure. The
// publication-scale numbers recorded in EXPERIMENTS.md come from
// cmd/asapfig at its default scale.

import (
	"runtime"
	"testing"

	"asap/internal/config"
	"asap/internal/harness"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/obs"
	"asap/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		// Parallel: 1 pins the per-experiment benchmarks to the strictly
		// serial engine so they measure simulator throughput, not pool
		// scheduling; the BenchmarkAll*/Fig8Parallel benchmarks below
		// measure the parallel engine.
		h := harness.New(harness.Options{Ops: 80, Seed: 1, Parallel: 1})
		if _, err := h.Experiment(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2 regenerates Figure 2 (epochs and cross-thread dependencies
// per millisecond across the Table III workloads).
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3 regenerates Figure 3 (persist buffer blocked cycles, HOPS).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig8 regenerates Figure 8 (speedup over the Intel baseline for
// all six models on all workloads).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (PM write endurance, ASAP vs HOPS).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (1/2/4/8-thread scalability).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (persist buffer occupancy).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12 (recovery table max occupancy).
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13 regenerates Figure 13 (bandwidth microbenchmark).
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkTab4 regenerates the quantitative Table IV (related work:
// HOPS, DPO, PMEM-Spec, ASAP, eADR; PMEM-Spec also at 1 MC).
func BenchmarkTab4(b *testing.B) { benchExperiment(b, "tab4") }

// BenchmarkTab5 regenerates Table V (hardware cost model).
func BenchmarkTab5(b *testing.B) { benchExperiment(b, "tab5") }

// Ablations (DESIGN.md extension studies).

// BenchmarkAblationRTSize sweeps the recovery table size.
func BenchmarkAblationRTSize(b *testing.B) { benchExperiment(b, "abl_rt") }

// BenchmarkAblationPBSize sweeps the persist buffer size.
func BenchmarkAblationPBSize(b *testing.B) { benchExperiment(b, "abl_pb") }

// BenchmarkAblationEager disables eager flushing in ASAP.
func BenchmarkAblationEager(b *testing.B) { benchExperiment(b, "abl_eager") }

// BenchmarkAblationXPBuffer sweeps the XPBuffer (undo-read cost).
func BenchmarkAblationXPBuffer(b *testing.B) { benchExperiment(b, "abl_xpbuf") }

// BenchmarkAblationInterleave compares 256 B vs 4 KB MC interleaving.
func BenchmarkAblationInterleave(b *testing.B) { benchExperiment(b, "abl_interleave") }

// BenchmarkSensitivityNVMBandwidth sweeps media write bandwidth (the
// paper's claim that ASAP's advantage grows with NVM bandwidth).
func BenchmarkSensitivityNVMBandwidth(b *testing.B) { benchExperiment(b, "abl_nvmbw") }

// BenchmarkStrandPersistency runs the strand-persistency extension
// (HOPS vs StrandWeaver vs ASAP on strand-annotated traces).
func BenchmarkStrandPersistency(b *testing.B) { benchExperiment(b, "abl_strands") }

// Parallel-engine benchmarks: the full campaign (`asapfig all`) with a
// serial engine vs the default GOMAXPROCS worker pool. The ratio of the
// two is the wall-clock speedup the -parallel flag buys on this machine;
// CI records both (the golden-table gate separately proves the outputs
// are byte-identical).
func benchAll(b *testing.B, parallel int) {
	b.Helper()
	ids := harness.Experiments()
	for i := 0; i < b.N; i++ {
		h := harness.New(harness.Options{Ops: 80, Seed: 1, Parallel: parallel})
		if _, err := h.Tables(ids); err != nil {
			b.Fatal(err)
		}
	}
}

// requireParallelHW skips pool-parallelism benchmarks on a
// single-CPU box. With GOMAXPROCS=1 the worker pool degenerates to the
// serial engine and a "parallel" benchmark records serial numbers — plus
// goroutine-scheduling overhead — under a parallel name. That is exactly
// the old baseline's Fig8Parallel anomaly (362.6 ms "parallel" vs 347.5 ms
// serial): not a performance bug, a benchmark measuring something other
// than its name claims. Skipping keeps such numbers out of the baseline
// entirely; benchdiff ignores benchmarks present on only one side.
func requireParallelHW(b *testing.B) {
	b.Helper()
	if n := runtime.GOMAXPROCS(0); n < 2 {
		b.Skipf("needs >1 CPU to measure parallelism (GOMAXPROCS=%d)", n)
	}
}

// BenchmarkAllSerial runs every experiment with one worker (the engine's
// strictly serial mode).
func BenchmarkAllSerial(b *testing.B) { benchAll(b, 1) }

// BenchmarkAllParallel runs every experiment with a GOMAXPROCS pool.
func BenchmarkAllParallel(b *testing.B) {
	requireParallelHW(b)
	benchAll(b, 0)
}

// BenchmarkFig8Parallel regenerates the headline figure alone on a
// GOMAXPROCS pool (its 84 simulations fan out from its one run list).
func BenchmarkFig8Parallel(b *testing.B) {
	requireParallelHW(b)
	for i := 0; i < b.N; i++ {
		h := harness.New(harness.Options{Ops: 80, Seed: 1, Parallel: 0})
		if _, err := h.Experiment("fig8"); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-model microbenchmarks: simulator throughput for a single fixed
// workload/model pair (simulated cycles are deterministic; this measures
// the simulator itself).
func benchRun(b *testing.B, wl, mdl string) {
	b.Helper()
	p := workload.Default()
	p.OpsPerThread = 120
	tr, err := workload.Generate(wl, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := machine.New(config.Default(), mdl, tr)
		if err != nil {
			b.Fatal(err)
		}
		if res := m.Run(0); res.Cycles == 0 {
			b.Fatal("zero cycles")
		}
	}
}

func BenchmarkRunBaselineCCEH(b *testing.B) { benchRun(b, "cceh", model.NameBaseline) }
func BenchmarkRunHOPSCCEH(b *testing.B)     { benchRun(b, "cceh", model.NameHOPSRP) }
func BenchmarkRunASAPCCEH(b *testing.B)     { benchRun(b, "cceh", model.NameASAPRP) }
func BenchmarkRunASAPPART(b *testing.B)     { benchRun(b, "p_art", model.NameASAPRP) }
func BenchmarkRunEADRCCEH(b *testing.B)     { benchRun(b, "cceh", model.NameEADR) }

// BenchmarkRunASAPTraced is BenchmarkRunASAPCCEH with full tracing on —
// collector and timeline attached, events recorded but not serialized.
// The ratio against BenchmarkRunASAPCCEH is the tracing-on overhead; CI
// gates it through benchdiff like every other benchmark.
func BenchmarkRunASAPTraced(b *testing.B) {
	p := workload.Default()
	p.OpsPerThread = 120
	tr, err := workload.Generate("cceh", p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := machine.New(config.Default(), model.NameASAPRP, tr)
		if err != nil {
			b.Fatal(err)
		}
		col := obs.NewCollector(m.Eng.Now)
		m.AttachTracer(col)
		m.EnableTimeline(0)
		if res := m.Run(0); res.Cycles == 0 {
			b.Fatal("zero cycles")
		}
		if col.Len() == 0 {
			b.Fatal("tracing recorded no events")
		}
	}
}
