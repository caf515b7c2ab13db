package harness

import (
	"fmt"
	"slices"

	"asap/internal/model"
	"asap/internal/runspec"
	"asap/internal/workload"
)

// workloadRuns lists the 4-thread run of every Table III workload under
// each of models, workload-major: workload w's run under models[m] sits at
// w*len(models)+m.
func (h *Harness) workloadRuns(models ...string) []runspec.RunSpec {
	var specs []runspec.RunSpec
	for _, wl := range Workloads() {
		for _, mn := range models {
			specs = append(specs, h.job(wl, mn, 4))
		}
	}
	return specs
}

// msCycles is one millisecond at 2 GHz, the window Figure 2 counts over.
const msCycles = 2_000_000.0

// Fig2 counts epochs and cross-thread dependencies per millisecond of
// 4-thread execution under release persistency (Figure 2). The paper's
// observation: the WHISPER applications have almost no cross dependencies;
// the new concurrent structures (CCEH, Dash, RECIPE) have many.
func (h *Harness) Fig2() (*Table, error) {
	t := &Table{
		ID:     "fig2",
		Title:  "Epochs and cross-thread dependencies per 1 ms (4 threads, release persistency)",
		Header: []string{"workload", "epochs/ms", "crossdeps/ms", "epochs", "crossdeps"},
	}
	rs, err := h.eng.runAll(h.workloadRuns(model.NameASAPRP))
	if err != nil {
		return nil, err
	}
	for i, wl := range Workloads() {
		epochs := float64(rs[i].Stats.Get("epochsCommitted"))
		deps := float64(rs[i].CrossDeps)
		scale := msCycles / float64(rs[i].Clock)
		t.Rows = append(t.Rows, []string{
			wl, f1(epochs * scale), f1(deps * scale),
			fmt.Sprintf("%.0f", epochs), fmt.Sprintf("%.0f", deps),
		})
	}
	t.Notes = append(t.Notes,
		"paper: WHISPER apps (nstore..memcached) near-zero crossdeps; CCEH/Dash/RECIPE frequent")
	return t, nil
}

// Fig3 measures the percentage of cycles the HOPS persist buffers are
// blocked from flushing (Figure 3; paper average 26%).
func (h *Harness) Fig3() (*Table, error) {
	t := &Table{
		ID:     "fig3",
		Title:  "Persist buffer stall cycles under HOPS_RP (4 threads)",
		Header: []string{"workload", "blocked%"},
	}
	rs, err := h.eng.runAll(h.workloadRuns(model.NameHOPSRP))
	if err != nil {
		return nil, err
	}
	var sum float64
	for i, wl := range Workloads() {
		r := rs[i]
		blocked := float64(r.Stats.Get("cyclesBlocked"))
		total := float64(r.Stats.Get("coreSampledCycles"))
		frac := 0.0
		if total > 0 {
			frac = blocked / total
		}
		sum += frac
		t.Rows = append(t.Rows, []string{wl, pct(frac)})
	}
	t.Rows = append(t.Rows, []string{"average", pct(sum / float64(len(Workloads())))})
	t.Notes = append(t.Notes, "paper: persist buffers blocked 26% of cycles on average")
	return t, nil
}

// fig8Models are the evaluated models of Figure 8, paper order. Each
// workload runs the baseline, the speedup denominator, first.
var fig8Models = []string{
	model.NameHOPSEP, model.NameHOPSRP,
	model.NameASAPEP, model.NameASAPRP, model.NameEADR,
}

// Fig8 is the headline performance study: speedup over the Intel baseline
// for all six models in a 4-core 2-MC system (Figure 8). Paper averages:
// ASAP_EP 2.1x, ASAP_RP 2.29x over baseline; ASAP ~23% over HOPS_RP and
// within 3.9% of eADR/BBB.
func (h *Harness) Fig8() (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "Speedup over baseline (4 cores, 2 MCs)",
		Header: append([]string{"workload"}, fig8Models...),
	}
	models := append([]string{model.NameBaseline}, fig8Models...)
	rs, err := h.eng.runAll(h.workloadRuns(models...))
	if err != nil {
		return nil, err
	}
	sums := make([]float64, len(fig8Models))
	for w, wl := range Workloads() {
		runs := rs[w*len(models):]
		row := []string{wl}
		for i := range fig8Models {
			sp := float64(runs[0].Cycles) / float64(runs[1+i].Cycles)
			sums[i] += sp
			row = append(row, f2(sp))
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"average"}
	for _, s := range sums {
		avg = append(avg, f2(s/float64(len(Workloads()))))
	}
	t.Rows = append(t.Rows, avg)
	t.Notes = append(t.Notes,
		"paper: ASAP_EP 2.1x, ASAP_RP 2.29x over baseline; ASAP_RP within 3.9% of eADR/BBB")
	return t, nil
}

// Fig9 compares PM media write operations, ASAP vs HOPS, normalized to HOPS
// (Figure 9), plus the PM read increase from undo-record creation (paper:
// +5.3% reads on average).
func (h *Harness) Fig9() (*Table, error) {
	t := &Table{
		ID:     "fig9",
		Title:  "PM write operations, ASAP_RP normalized to HOPS_RP (4 threads)",
		Header: []string{"workload", "writes(norm)", "reads(norm)", "hopsWrites", "asapWrites"},
	}
	rs, err := h.eng.runAll(h.workloadRuns(model.NameHOPSRP, model.NameASAPRP))
	if err != nil {
		return nil, err
	}
	var wsum, rsum float64
	for w, wl := range Workloads() {
		hops, asap := rs[2*w], rs[2*w+1]
		wn := float64(asap.PMWrites) / float64(hops.PMWrites)
		rn := 1.0
		if hops.PMReads > 0 {
			rn = float64(asap.PMReads) / float64(hops.PMReads)
		} else if asap.PMReads > 0 {
			rn = float64(asap.PMReads)
		}
		wsum += wn
		rsum += rn
		t.Rows = append(t.Rows, []string{
			wl, f2(wn), f2(rn),
			fmt.Sprintf("%d", hops.PMWrites), fmt.Sprintf("%d", asap.PMWrites),
		})
	}
	n := float64(len(Workloads()))
	t.Rows = append(t.Rows, []string{"average", f2(wsum / n), f2(rsum / n), "", ""})
	t.Notes = append(t.Notes,
		"paper: ASAP usually fewer writes (undo suppression + RT/WPQ coalescing); reads +5.3%")
	return t, nil
}

// fig10Threads is Figure 10's thread sweep.
var fig10Threads = []int{1, 2, 4, 8}

// Fig10 is the core-count sensitivity study: speedup over single-threaded
// HOPS for 1/2/4/8 threads, 2 MCs, for the best-scaling workload (P-ART),
// the worst (skip list), and the all-workload average (Figure 10).
func (h *Harness) Fig10() (*Table, error) {
	t := &Table{
		ID:    "fig10",
		Title: "Scalability: speedup vs 1-thread HOPS (2 MCs)",
		Header: []string{"workload", "model",
			"1t", "2t", "4t", "8t"},
	}
	wls := Workloads()
	models := []string{model.NameHOPSRP, model.NameASAPRP}
	var specs []runspec.RunSpec
	for _, wl := range wls {
		for _, mn := range models {
			for _, th := range fig10Threads {
				specs = append(specs, h.job(wl, mn, th))
			}
		}
	}
	rs, err := h.eng.runAll(specs)
	if err != nil {
		return nil, err
	}
	// Throughput scaling: ops are proportional to threads, so the speedup
	// of workload w under models[m] at fig10Threads[k] is
	// (cycles_hops_1t * threads) / cycles.
	cycles := func(w, m, k int) float64 {
		return float64(rs[(w*len(models)+m)*len(fig10Threads)+k].Cycles)
	}
	speedup := func(w, m, k int) float64 {
		return cycles(w, 0, 0) * float64(fig10Threads[k]) / cycles(w, m, k)
	}
	for _, wl := range []string{"p_art", "atlas_skiplist"} {
		w := slices.Index(wls, wl)
		for m, mn := range models {
			row := []string{wl, mn}
			for k := range fig10Threads {
				row = append(row, f2(speedup(w, m, k)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	// Average over all workloads.
	for m, mn := range models {
		row := []string{"average", mn}
		for k := range fig10Threads {
			var sum float64
			for w := range wls {
				sum += speedup(w, m, k)
			}
			row = append(row, f2(sum/float64(len(wls))))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: ASAP 1.18/1.79/2.51/2.85x at 1/2/4/8 threads vs HOPS-1t; HOPS only 1/1.36/1.94/2.15x")
	return t, nil
}

// Fig11 reports persist-buffer occupancy (average and 99th percentile) for
// HOPS and ASAP (Figure 11): eager flushing keeps ASAP's buffers far
// emptier.
func (h *Harness) Fig11() (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "Persist buffer occupancy (4 threads)",
		Header: []string{"workload", "hops avg", "hops p99", "asap avg", "asap p99"},
	}
	rs, err := h.eng.runAll(h.workloadRuns(model.NameHOPSRP, model.NameASAPRP))
	if err != nil {
		return nil, err
	}
	var hsum, asum float64
	for w, wl := range Workloads() {
		hr, ar := rs[2*w], rs[2*w+1]
		hd := hr.Stats.Dist("pbOccupancy")
		ad := ar.Stats.Dist("pbOccupancy")
		t.Rows = append(t.Rows, []string{
			wl, f2(hd.Mean()), fmt.Sprintf("%d", hd.Percentile(0.99)),
			f2(ad.Mean()), fmt.Sprintf("%d", ad.Percentile(0.99)),
		})
		hsum += hd.Mean()
		asum += ad.Mean()
	}
	n := float64(len(Workloads()))
	t.Rows = append(t.Rows, []string{"average", f2(hsum / n), "", f2(asum / n), ""})
	t.Notes = append(t.Notes, "paper: both average and p99 much lower under ASAP")
	return t, nil
}

// Fig12 reports the maximum recovery-table occupancy at 4 and 8 threads
// (Figure 12): occupancy stays small and grows little with threads.
func (h *Harness) Fig12() (*Table, error) {
	t := &Table{
		ID:     "fig12",
		Title:  "Recovery table max occupancy (ASAP_RP; 32-entry RT per MC)",
		Header: []string{"workload", "4 threads", "8 threads"},
	}
	var specs []runspec.RunSpec
	for _, wl := range Workloads() {
		specs = append(specs, h.job(wl, model.NameASAPRP, 4), h.job(wl, model.NameASAPRP, 8))
	}
	rs, err := h.eng.runAll(specs)
	if err != nil {
		return nil, err
	}
	var s4, s8 float64
	for w, wl := range Workloads() {
		r4, r8 := rs[2*w], rs[2*w+1]
		s4 += float64(r4.RTMaxOcc)
		s8 += float64(r8.RTMaxOcc)
		t.Rows = append(t.Rows, []string{
			wl, fmt.Sprintf("%d", r4.RTMaxOcc), fmt.Sprintf("%d", r8.RTMaxOcc),
		})
	}
	n := float64(len(Workloads()))
	t.Rows = append(t.Rows, []string{"average", f1(s4 / n), f1(s8 / n)})
	t.Notes = append(t.Notes,
		"paper: max occupancy small, grows little 4->8 threads; Nstore occasionally fills the RT (NACKs)")
	return t, nil
}

// fig13Params scales the bandwidth micro's op count up so the controllers
// see plenty of blocks at every thread count.
func (h *Harness) fig13Params(threads int) workload.Params {
	p := h.params(threads)
	p.OpsPerThread = h.opts.Ops * 4
	return p
}

// Fig13 is the bandwidth microbenchmark (Figure 13): 256 B writes
// alternating across the two controllers, ordered by ofence. The paper
// reports ASAP ~2x HOPS from overlapping the two MCs.
func (h *Harness) Fig13() (*Table, error) {
	t := &Table{
		ID:     "fig13",
		Title:  "System write bandwidth utilization (256 B ofence-ordered writes across 2 MCs)",
		Header: []string{"threads", "baseline GB/s", "hops GB/s", "asap GB/s", "asap/hops"},
	}
	threads := []int{1, 2, 4}
	models := []string{model.NameBaseline, model.NameHOPSRP, model.NameASAPRP}
	var specs []runspec.RunSpec
	for _, th := range threads {
		for _, mn := range models {
			specs = append(specs, h.jobParams(h.cfgFor(th), h.fig13Params(th), "bandwidth", mn))
		}
	}
	rs, err := h.eng.runAll(specs)
	if err != nil {
		return nil, err
	}
	for i, th := range threads {
		bytes := float64(workload.BandwidthBytes(h.fig13Params(th)))
		row := []string{fmt.Sprintf("%d", th)}
		var hopsBW, asapBW float64
		for j, mn := range models {
			r := rs[i*len(models)+j]
			secs := float64(r.Cycles) / 2e9 // 2 GHz
			gbs := bytes / secs / 1e9
			switch mn {
			case model.NameHOPSRP:
				hopsBW = gbs
			case model.NameASAPRP:
				asapBW = gbs
			}
			row = append(row, f2(gbs))
		}
		row = append(row, f2(asapBW/hopsBW))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper: ASAP ~2x HOPS by overlapping writes to both controllers")
	return t, nil
}
