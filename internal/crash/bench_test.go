package crash

import (
	"testing"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/trace"
	"asap/internal/workload"
)

// campaignBenchTrace is the shared 1k-injection campaign workload: long
// enough that the per-injection prefix dominates the rebuild formulation,
// with the moderate persistent footprint of a real index.
func campaignBenchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	tr, err := workload.Generate("cceh", workload.Params{Threads: 2, OpsPerThread: 400, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

const campaignBenchRuns = 1000

// BenchmarkCrashCampaignForked measures the checkpoint-forked campaign:
// one simulation along the sorted injection frontier, an in-place
// recapture each time the frontier moves a ~T/64 stride, and one rewind
// plus a sub-stride suffix per injection. Its counterpart
// BenchmarkCrashCampaignRebuild re-simulates the prefix per injection; the
// tentpole's acceptance gate is forked ≥ 5× faster at 1k injections.
func BenchmarkCrashCampaignForked(b *testing.B) {
	tr := campaignBenchTrace(b)
	cfg := config.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Campaign(cfg, model.NameASAPEP, tr, campaignBenchRuns, 7)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Failures) != 0 {
			b.Fatalf("campaign found %d failures", len(res.Failures))
		}
	}
}

// BenchmarkCrashCampaignRebuild is the baseline side of the ≥5× gate.
func BenchmarkCrashCampaignRebuild(b *testing.B) {
	tr := campaignBenchTrace(b)
	cfg := config.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := CampaignRebuild(cfg, model.NameASAPEP, tr, campaignBenchRuns, 7)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Failures) != 0 {
			b.Fatalf("campaign found %d failures", len(res.Failures))
		}
	}
}

// BenchmarkCrashCheck measures one crash.Check — the Lemma 1.1 and
// Theorem 2 verdict over the Ledger — on an asap_ep/cceh machine crashed
// halfway through the campaign trace. The check reads the machine and
// never mutates it, so every iteration sees the same image.
func BenchmarkCrashCheck(b *testing.B) {
	tr := campaignBenchTrace(b)
	cfg := config.Default()
	ref, err := machine.New(cfg, model.NameASAPEP, tr)
	if err != nil {
		b.Fatal(err)
	}
	total := ref.Run(0).Cycles
	m, err := machine.New(cfg, model.NameASAPEP, tr)
	if err != nil {
		b.Fatal(err)
	}
	m.CrashNow(total / 2)
	if rep := Check(m); !rep.OK || rep.LinesChecked == 0 {
		b.Fatalf("mid-run crash check: %+v", rep)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := Check(m); !rep.OK {
			b.Fatal(rep.Problems)
		}
	}
}
