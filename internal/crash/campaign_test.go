package crash

import (
	"fmt"
	"reflect"
	"testing"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/rng"
	"asap/internal/trace"
	"asap/internal/workload"
)

// TestCampaignForkedMatchesRebuild pins the forked campaign's contract: the
// checkpoint-forked formulation must produce byte-identical results —
// MaxCycles, crash counts, failure reports and their order — to the
// rebuild-per-injection oracle, across models with different persist
// machinery and a lock-heavy workload.
func TestCampaignForkedMatchesRebuild(t *testing.T) {
	cfg := config.Default()
	tr, err := workload.Generate("echo", workload.Params{Threads: 2, OpsPerThread: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, mn := range []string{model.NameBaseline, model.NameASAPEP, model.NameHOPSRP, model.NameStrandWeaver} {
		t.Run(mn, func(t *testing.T) {
			t.Parallel()
			const runs, seed = 40, 1234
			forked, err := Campaign(cfg, mn, tr, runs, seed)
			if err != nil {
				t.Fatalf("forked: %v", err)
			}
			rebuilt, err := CampaignRebuild(cfg, mn, tr, runs, seed)
			if err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			if !reflect.DeepEqual(forked, rebuilt) {
				t.Fatalf("campaigns diverged:\nforked:  %+v\nrebuilt: %+v", forked, rebuilt)
			}
		})
	}
}

// TestCrashNowEquivalence pins CrashNow against the scheduled-crash path it
// replaces: for a spread of injection cycles, a machine crashed via
// CrashNow(at) must leave the same NVM image, ledger verdict, stats, and
// crash flag as one built identically and run with ScheduleCrash(at).
func TestCrashNowEquivalence(t *testing.T) {
	cfg := config.Default()
	tr, err := workload.Generate("cceh", workload.Params{Threads: 2, OpsPerThread: 80, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := machine.New(cfg, model.NameASAPEP, tr)
	if err != nil {
		t.Fatal(err)
	}
	total := ref.Run(0).Cycles
	for _, at := range []uint64{1, 2, total / 7, total / 3, total / 2, total - 1, total, total + 1} {
		if at == 0 {
			continue
		}
		mSched, err := machine.New(cfg, model.NameASAPEP, tr)
		if err != nil {
			t.Fatal(err)
		}
		mSched.ScheduleCrash(at)
		mSched.Run(0)

		mNow, err := machine.New(cfg, model.NameASAPEP, tr)
		if err != nil {
			t.Fatal(err)
		}
		mNow.CrashNow(at)

		if mSched.Crashed != mNow.Crashed {
			t.Errorf("at=%d: crash flag diverged (sched %v, now %v)", at, mSched.Crashed, mNow.Crashed)
		}
		for i := range mSched.MCs {
			a, b := mSched.MCs[i].NVM.Snapshot(), mNow.MCs[i].NVM.Snapshot()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("at=%d: MC%d NVM image diverged", at, i)
			}
		}
		repA, repB := Check(mSched), Check(mNow)
		if !reflect.DeepEqual(repA, repB) {
			t.Errorf("at=%d: check reports diverged:\nsched %+v\nnow   %+v", at, repA, repB)
		}
		if a, b := mSched.St.String(), mNow.St.String(); a != b {
			t.Errorf("at=%d: stats diverged:\n%s\nvs\n%s", at, a, b)
		}
	}
}

// CampaignRebuild is the pre-checkpoint formulation — a full from-zero
// simulation per injection point, each on the reference machine Reset from
// its own plan, crashed as the last injection left it. It lives with the
// tests as the differential oracle for the forked campaign (and so of Reset
// after a crash) and as the baseline side of BenchmarkCrashCampaign.
func CampaignRebuild(cfg config.Config, modelName string, tr *trace.Trace, runs int, seed uint64) (CampaignResult, error) {
	res := CampaignResult{Model: modelName, Runs: runs}
	r := rng.New(seed)

	ref, err := machine.New(cfg, modelName, tr)
	if err != nil {
		return res, err
	}
	refRes := ref.Run(0)
	res.MaxCycles = refRes.Cycles
	if refRes.Cycles == 0 {
		return res, fmt.Errorf("crash: reference run of %s reported zero cycles", modelName)
	}
	for _, mc := range ref.MCs {
		mc.CrashFlush()
	}
	if rep := Check(ref); !rep.OK {
		res.Failures = append(res.Failures, rep)
	}

	m, plan := ref, ref.Plan()
	for i := 0; i < runs; i++ {
		if err := m.Reset(plan); err != nil {
			return res, err
		}
		at := 1 + r.Uint64n(uint64(refRes.Cycles)+1)
		m.ScheduleCrash(at)
		m.Run(0)
		if m.Crashed {
			res.Crashes++
		}
		if rep := Check(m); !rep.OK {
			res.Failures = append(res.Failures, rep)
		}
	}
	return res, nil
}
