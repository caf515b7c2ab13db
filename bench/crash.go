package main

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"asap/internal/checkpoint"
	"asap/internal/config"
	"asap/internal/crash"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/rng"
	"asap/internal/sim"
	"asap/internal/trace"
	"asap/internal/workload"
)

// crashModels are cycled through by the campaigns. eADR is left out: its
// persistence domain is the cache hierarchy, which the ADR crash path does
// not model. Campaign cost differs by model, so item times cluster by
// model; with five equal clusters p50 and p90 fall mid-cluster rather than
// on the edge between two.
var crashModels = []string{model.NameASAPEP, model.NameASAPRP, model.NameHOPSEP, model.NameHOPSRP, model.NameBaseline}

// runCrash runs Theorem-2 crash campaigns over one 2-thread cceh trace,
// cycling through crashModels with a new campaign seed each time. An item
// is one campaign; no campaign may report a failure. The traced run
// replays each campaign layer by layer and checks the replay's result
// equals crash.Campaign's.
func runCrash(r *runner) error {
	var tr *trace.Trace
	if err := r.setup(func() (err error) {
		p := workload.Default()
		p.Threads = 2
		p.OpsPerThread = r.sz.crashOps
		p.Seed = r.opt.seed
		sp := r.tr.begin("workload", "cceh", -1)
		tr, err = workload.Generate("cceh", p)
		r.tr.end(sp, 0)
		return err
	}); err != nil {
		return err
	}
	cfg := config.Default()
	n := r.sz.injections
	r.startLoop()
	for j := 0; r.more(); j++ {
		mdl := crashModels[j%len(crashModels)]
		seed := r.opt.seed + uint64(j)
		if r.tr == nil {
			start := time.Now()
			res, err := crash.Campaign(cfg, mdl, tr, n, seed)
			r.item(start, time.Now())
			r.ops += float64(n)
			r.check(err == nil && len(res.Failures) == 0, 1, "campaign %s seed %d: %v %v", mdl, seed, err, res.Failures)
			continue
		}
		sp := r.tr.begin("crash.campaign", mdl, -1)
		want, err := crash.Campaign(cfg, mdl, tr, n, seed)
		r.tr.end(sp, 0)
		item := r.tr.beginItem("crash.replay", 0)
		start := time.Now()
		got, rerr := r.replayCampaign(item, cfg, mdl, tr, n, seed, j < len(crashModels))
		r.tr.end(item, 0)
		r.item(start, time.Now())
		r.ops += float64(n)
		r.check(err == nil && rerr == nil && len(want.Failures) == 0 && reflect.DeepEqual(got, want), 1,
			"campaign %s seed %d: Campaign %v (%v), replay %v (%v)", mdl, seed, want, err, got, rerr)
	}
	r.endLoop()
	return nil
}

// replayCampaign is crash.Campaign's documented algorithm spelled out
// through its layers: one reference run behind a cycle-zero checkpoint,
// then the injection points visited in sorted order, each forked from the
// frontier checkpoint, which moves in strides of about T/64. It must
// return exactly what Campaign returns. With first set, the reference
// run's statistics count towards sim.*.
func (r *runner) replayCampaign(item int, cfg config.Config, mdl string, tr *trace.Trace, runs int, seed uint64, first bool) (crash.CampaignResult, error) {
	res := crash.CampaignResult{Model: mdl, Runs: runs}
	rnd := rng.New(seed)

	sp := r.tr.begin("machine_new", mdl, item)
	m, err := machine.New(cfg, mdl, tr)
	if err == nil {
		m.Start()
	}
	r.tr.end(sp, 0)
	if err != nil {
		return res, err
	}
	cp, err := r.capture(item, m)
	if err != nil {
		return res, err
	}
	sp = r.tr.begin("machine_run", mdl, item)
	ref := m.Run(0)
	r.tr.end(sp, m.Eng.Dispatched())
	if first {
		r.sim.add(ref, m)
	}
	res.MaxCycles = ref.Cycles
	if ref.Cycles == 0 {
		return res, fmt.Errorf("reference run of %s reported zero cycles", mdl)
	}
	for _, mc := range m.MCs {
		mc.CrashFlush()
	}
	refRep := r.crashCheck(item, m)
	if !refRep.OK {
		res.Failures = append(res.Failures, refRep)
	}

	ats := make([]sim.Cycles, runs)
	order := make([]int, runs)
	for i := range ats {
		ats[i] = 1 + rnd.Uint64n(uint64(ref.Cycles)+1)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if ats[order[a]] != ats[order[b]] {
			return ats[order[a]] < ats[order[b]]
		}
		return order[a] < order[b]
	})
	stride := ref.Cycles / 64
	reports := make([]crash.Report, runs)
	for _, idx := range order {
		at := ats[idx]
		res.Crashes++
		if at > ref.Cycles {
			reports[idx] = refRep
			continue
		}
		sp = r.tr.begin("checkpoint.fork", mdl, item)
		m = cp.Fork()
		r.tr.end(sp, 0)
		if at-1 > cp.Cycle()+stride {
			r.advance(item, m, func() { m.Advance(at - 1) })
			if cp, err = r.capture(item, m); err != nil {
				return res, err
			}
		}
		r.advance(item, m, func() { m.CrashNow(at) })
		reports[idx] = r.crashCheck(item, m)
	}
	for i := range reports {
		if !reports[i].OK {
			res.Failures = append(res.Failures, reports[i])
		}
	}
	return res, nil
}

func (r *runner) capture(item int, m *machine.Machine) (*checkpoint.Checkpoint, error) {
	sp := r.tr.begin("checkpoint.capture", "", item)
	cp, err := checkpoint.Capture(m)
	r.tr.end(sp, 0)
	return cp, err
}

// advance spans fn, which moves m forward, with the events it dispatched.
func (r *runner) advance(item int, m *machine.Machine, fn func()) {
	sp := r.tr.begin("machine_advance", "", item)
	before := m.Eng.Dispatched()
	fn()
	r.tr.end(sp, m.Eng.Dispatched()-before)
}

func (r *runner) crashCheck(item int, m *machine.Machine) crash.Report {
	sp := r.tr.begin("crash.check", "", item)
	rep := crash.Check(m)
	r.tr.end(sp, 0)
	return rep
}
