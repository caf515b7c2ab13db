package harness

import (
	"fmt"

	"asap/internal/config"
	"asap/internal/model"
	"asap/internal/runspec"
	"asap/internal/sim"
)

// tab4Models are the Table IV designs compared at the default 2-MC
// configuration.
var tab4Models = []string{
	model.NameLBPP, model.NameHOPSRP, model.NameDPO, model.NameLRP,
	model.NameVorpal, model.NamePMEMSpec, model.NameASAPRP, model.NameEADR,
}

// tab4Workloads is the representative workload subset of the comparison.
var tab4Workloads = []string{"nstore", "cceh", "fast_fair", "atlas_queue", "p_masstree"}

// oneMCCfg is the single-controller machine, the configuration where the
// paper says PMEM-Spec matches ASAP (it never mis-speculates there).
func oneMCCfg() config.Config {
	cfg := config.Default()
	cfg.MCs = 1
	return cfg
}

// Tab4 makes the paper's qualitative related-work comparison (Table IV)
// quantitative for the designs implemented here: the six evaluated models
// plus DPO (conservative flushing, snooped dependency resolution, weak
// multi-MC story) and PMEM-Spec (unbuffered speculation with software
// mis-speculation recovery). PMEM-Spec also runs on a 1-MC machine, the
// configuration where the paper says it matches ASAP.
func (h *Harness) Tab4() (*Table, error) {
	t := &Table{
		ID:    "tab4",
		Title: "Quantitative Table IV: speedup over baseline (2 MCs; pmem_spec also at 1 MC)",
		Header: append(append([]string{"workload"}, tab4Models...),
			"pmem_spec@1mc", "asap_rp@1mc"),
	}
	// Per workload: the baseline and tab4Models at 2 MCs, then the
	// single-controller runs, where PMEM-Spec never mis-speculates.
	models := append([]string{model.NameBaseline}, tab4Models...)
	oneMC := []string{model.NameBaseline, model.NamePMEMSpec, model.NameASAPRP}
	var specs []runspec.RunSpec
	for _, wl := range tab4Workloads {
		for _, mn := range models {
			specs = append(specs, h.job(wl, mn, 4))
		}
		for _, mn := range oneMC {
			specs = append(specs, h.jobCfg(oneMCCfg(), wl, mn, 4))
		}
	}
	rs, err := h.eng.runAll(specs)
	if err != nil {
		return nil, err
	}
	for w, wl := range tab4Workloads {
		runs := rs[w*(len(models)+len(oneMC)):]
		base := float64(runs[0].Cycles)
		row := []string{wl}
		for i := range tab4Models {
			row = append(row, f2(base/float64(runs[1+i].Cycles)))
		}
		one := runs[len(models):]
		base1 := float64(one[0].Cycles)
		row = append(row, f2(base1/float64(one[1].Cycles)), f2(base1/float64(one[2].Cycles)))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper Table IV: every conservative design (LB++, HOPS, DPO, LRP) below ASAP; DPO ~ HOPS;",
		"PMEM-Spec: no stalls but high recovery cost in multi-MC systems, ~ASAP at 1 MC;",
		"eADR: no stalls, large battery. Mis-speculation counts appear in run stats (specMisspeculations).",
		"note: this LB++ omits its cache-eviction stalls, so it can beat polling-bound HOPS on short epochs;",
		"vorpal pays a 500-cycle clock broadcast before any epoch's successor may persist, so dfence-heavy",
		"workloads fall below even the synchronous baseline — the paper's broadcast-frequency criticism")
	return t, nil
}

// ablNVMBWGaps is the NVMDrainGap sweep in ns; the header labels the
// per-controller write bandwidth each gap corresponds to.
var ablNVMBWGaps = []uint64{56, 28, 14, 7}

// nvmBWCfg sets the per-line media drain gap (write throughput).
func (h *Harness) nvmBWCfg(threads int, gapNS uint64) config.Config {
	cfg := h.cfgFor(threads)
	cfg.NVMDrainGap = sim.NS(gapNS)
	return cfg
}

// AblNVMBW sweeps the per-controller NVM write bandwidth on the
// bandwidth-bound microbenchmark: the paper's §I claim that ASAP "offers
// greater performance benefit with increasing NVM write bandwidth" — faster
// media raises ASAP's eager-flushing ceiling while conservative designs
// stay bound by their per-epoch ACK round trip.
func (h *Harness) AblNVMBW() (*Table, error) {
	t := &Table{
		ID:     "abl_nvmbw",
		Title:  "Sensitivity: NVM write bandwidth per MC vs ASAP's advantage over HOPS (bandwidth micro)",
		Header: []string{"threads", "1.1GB/s", "2.3GB/s", "4.6GB/s", "9.1GB/s"},
	}
	threads := []int{1, 2}
	var specs []runspec.RunSpec
	for _, th := range threads {
		p := h.fig13Params(th)
		for _, gapNS := range ablNVMBWGaps {
			cfg := h.nvmBWCfg(th, gapNS)
			specs = append(specs,
				h.jobParams(cfg, p, "bandwidth", model.NameHOPSRP),
				h.jobParams(cfg, p, "bandwidth", model.NameASAPRP))
		}
	}
	rs, err := h.eng.runAll(specs)
	if err != nil {
		return nil, err
	}
	for ti, th := range threads {
		row := []string{fmt.Sprintf("%d", th)}
		for g := range ablNVMBWGaps {
			i := 2 * (ti*len(ablNVMBWGaps) + g)
			hr, ar := rs[i], rs[i+1]
			row = append(row, f2(float64(hr.Cycles)/float64(ar.Cycles)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("cells: HOPS/ASAP cycle ratio (>1 = ASAP faster); drain gaps swept: %v ns/line", ablNVMBWGaps),
		"paper §I: ASAP offers greater benefit with increasing NVM write bandwidth")
	return t, nil
}
