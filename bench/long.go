package main

import (
	"time"

	"asap/internal/config"
	"asap/internal/model"
	"asap/internal/trace"
	"asap/internal/workload"
)

// The long_* workloads split the models by how they schedule: typed events
// only, or closures through sim.Engine.At/After. A typed conversion of the
// closure-scheduled models should move long_legacy and leave long_typed.
var (
	typedModels  = []string{model.NameBaseline, model.NameASAPEP, model.NameASAPRP, model.NameEADR}
	legacyModels = []string{model.NameHOPSRP, model.NameLBPP, model.NameDPO, model.NameLRP, model.NameStrandWeaver, model.NameVorpal, model.NamePMEMSpec}
	longTraces   = []string{"cceh", "nstore"}
)

// runLong is the asapsim path: long single runs, where the event loop is
// nearly all the time. Set-up generates the cceh and nstore traces; each
// round then builds and runs a machine per trace and model. An item is one
// machine.New plus Run. Every round must reproduce round 0 exactly.
func runLong(r *runner, name string, models []string) error {
	var traces []*trace.Trace
	if err := r.setup(func() (err error) {
		traces, err = r.genLong(r.opt.seed)
		return err
	}); err != nil {
		return err
	}
	ref := make(map[string]string)
	r.startLoop()
	for round := 0; r.more(); round++ {
		for i, tr := range traces {
			for _, mdl := range models {
				key := longTraces[i] + "/" + mdl
				item := r.tr.beginItem("long.run", 0)
				start := time.Now()
				res, m, err := r.simulate(item, config.Default(), mdl, tr)
				r.tr.end(item, 0)
				r.item(start, time.Now())
				if err != nil {
					r.check(false, 1, "%s: %v", key, err)
					continue
				}
				r.ops += float64(tr.TotalOps())
				d := resultDigest(longTraces[i], mdl, res)
				if round == 0 {
					ref[key] = d
					r.sim.add(res, m)
				}
				r.check(d == ref[key], 1, "%s: round %d differs from round 0", key, round)
			}
		}
	}
	r.endLoop()
	if r.sz.pinned {
		r.checkPinned(name)
	}
	return nil
}

// genLong generates the long traces: 4 threads at the scale's ops.
func (r *runner) genLong(seed uint64) ([]*trace.Trace, error) {
	p := workload.Default()
	p.OpsPerThread = r.sz.longOps
	p.Seed = seed
	out := make([]*trace.Trace, len(longTraces))
	for i, wl := range longTraces {
		sp := r.tr.begin("workload", wl, -1)
		tr, err := workload.Generate(wl, p)
		r.tr.end(sp, 0)
		if err != nil {
			return nil, err
		}
		out[i] = tr
	}
	return out, nil
}

// longDigests runs one seed-1 round and digests each run, keyed
// "trace/model".
func (r *runner) longDigests(models []string) (map[string]string, error) {
	traces, err := r.genLong(1)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for i, tr := range traces {
		for _, mdl := range models {
			res, _, err := r.simulate(-1, config.Default(), mdl, tr)
			if err != nil {
				return nil, err
			}
			out[longTraces[i]+"/"+mdl] = resultDigest(longTraces[i], mdl, res)
		}
	}
	return out, nil
}
