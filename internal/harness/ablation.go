package harness

import (
	"fmt"
	"slices"

	"asap/internal/config"
	"asap/internal/model"
	"asap/internal/runspec"
)

// Ablation studies for the design choices DESIGN.md calls out. These go
// beyond the paper's own sensitivity studies (extension work): each isolates
// one mechanism of ASAP.

// ablationWorkloads are a representative subset: one dependency-heavy
// structure, one fence-heavy tree, one WHISPER app.
var ablationWorkloads = []string{"cceh", "fast_fair", "nstore"}

// ablStructSizes is the structure-size sweep shared by AblRT and AblPB;
// both normalize cycles to the 32-entry run, at index ablRef.
var ablStructSizes = []int{4, 8, 16, 32, 64}

var ablRef = slices.Index(ablStructSizes, 32)

// rtCfg is the recovery-table size sweep's machine configuration.
func rtCfg(entries int) config.Config {
	cfg := config.Default()
	cfg.RTEntries = entries
	return cfg
}

// AblRT sweeps the recovery-table size: smaller tables NACK more and fall
// back to conservative flushing; the paper argues 32 entries suffice.
func (h *Harness) AblRT() (*Table, error) {
	t := &Table{
		ID:     "abl_rt",
		Title:  "Ablation: recovery table size (ASAP_RP cycles normalized to 32 entries)",
		Header: []string{"workload", "4", "8", "16", "32", "64"},
	}
	var specs []runspec.RunSpec
	for _, wl := range ablationWorkloads {
		for _, sz := range ablStructSizes {
			specs = append(specs, h.jobCfg(rtCfg(sz), wl, model.NameASAPRP, 4))
		}
	}
	rs, err := h.eng.runAll(specs)
	if err != nil {
		return nil, err
	}
	for w, wl := range ablationWorkloads {
		runs := rs[w*len(ablStructSizes):]
		ref := float64(runs[ablRef].Cycles)
		row := []string{wl}
		for i := range ablStructSizes {
			row = append(row, f2(float64(runs[i].Cycles)/ref))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "NACK fallback keeps small tables functional; expect mild slowdown below 16")
	return t, nil
}

// pbCfg is the persist-buffer size sweep's machine configuration.
func pbCfg(entries int) config.Config {
	cfg := config.Default()
	cfg.PBEntries = entries
	return cfg
}

// AblPB sweeps the persist-buffer size: Figure 11 suggests ASAP performs
// well with far fewer than 32 entries.
func (h *Harness) AblPB() (*Table, error) {
	t := &Table{
		ID:     "abl_pb",
		Title:  "Ablation: persist buffer size (cycles normalized to 32 entries)",
		Header: []string{"workload", "model", "4", "8", "16", "32", "64"},
	}
	models := []string{model.NameHOPSRP, model.NameASAPRP}
	var specs []runspec.RunSpec
	for _, wl := range ablationWorkloads {
		for _, mdl := range models {
			for _, sz := range ablStructSizes {
				specs = append(specs, h.jobCfg(pbCfg(sz), wl, mdl, 4))
			}
		}
	}
	rs, err := h.eng.runAll(specs)
	if err != nil {
		return nil, err
	}
	for w, wl := range ablationWorkloads {
		for m, mdl := range models {
			runs := rs[(w*len(models)+m)*len(ablStructSizes):]
			ref := float64(runs[ablRef].Cycles)
			row := []string{wl, mdl}
			for i := range ablStructSizes {
				row = append(row, f2(float64(runs[i].Cycles)/ref))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes, "paper (§VII-B): \"we expect to observe similar performance with smaller PBs\" for ASAP")
	return t, nil
}

// noEagerCfg disables eager flushing (safe flushes only).
func noEagerCfg() config.Config {
	cfg := config.Default()
	cfg.ASAPNoEager = true
	return cfg
}

// AblEager disables eager flushing while keeping the buffering: isolates the
// speculation mechanism from the persist-buffer decoupling.
func (h *Harness) AblEager() (*Table, error) {
	t := &Table{
		ID:     "abl_eager",
		Title:  "Ablation: ASAP_RP with eager flushing disabled (safe flushes only)",
		Header: []string{"workload", "eager cycles", "no-eager cycles", "eager gain"},
	}
	var specs []runspec.RunSpec
	for _, wl := range Workloads() {
		specs = append(specs, h.job(wl, model.NameASAPRP, 4), h.jobCfg(noEagerCfg(), wl, model.NameASAPRP, 4))
	}
	rs, err := h.eng.runAll(specs)
	if err != nil {
		return nil, err
	}
	for w, wl := range Workloads() {
		er, cr := rs[2*w], rs[2*w+1]
		eager := float64(er.Cycles)
		cons := float64(cr.Cycles)
		t.Rows = append(t.Rows, []string{
			wl, fmt.Sprintf("%.0f", eager), fmt.Sprintf("%.0f", cons), f2(cons / eager),
		})
	}
	t.Notes = append(t.Notes, "no-eager ASAP ~= HOPS with CDR messages instead of polling")
	return t, nil
}

// ablXPBufSizes is the XPBuffer sweep (lines per MC).
var ablXPBufSizes = []int{0, 16, 64, 256}

// xpBufCfg sets the XPBuffer size.
func xpBufCfg(lines int) config.Config {
	cfg := config.Default()
	cfg.XPBufLines = lines
	return cfg
}

// AblXPBuf sweeps the Optane XPBuffer size, which sets the cost of
// undo-record creation reads (§V-A argues most hit this buffer).
func (h *Harness) AblXPBuf() (*Table, error) {
	t := &Table{
		ID:     "abl_xpbuf",
		Title:  "Ablation: XPBuffer lines vs undo-read media traffic (ASAP_RP)",
		Header: []string{"workload", "xp=0 reads", "xp=16", "xp=64", "xp=256", "cycles xp0/xp64"},
	}
	var specs []runspec.RunSpec
	for _, wl := range ablationWorkloads {
		for _, sz := range ablXPBufSizes {
			specs = append(specs, h.jobCfg(xpBufCfg(sz), wl, model.NameASAPRP, 4))
		}
	}
	rs, err := h.eng.runAll(specs)
	if err != nil {
		return nil, err
	}
	for w, wl := range ablationWorkloads {
		row := []string{wl}
		var cyc0, cyc64 float64
		for i, sz := range ablXPBufSizes {
			res := rs[w*len(ablXPBufSizes)+i]
			row = append(row, fmt.Sprintf("%d", res.Stats.Get("mcUndoMediaReads")))
			switch sz {
			case 0:
				cyc0 = float64(res.Cycles)
			case 64:
				cyc64 = float64(res.Cycles)
			}
		}
		row = append(row, f2(cyc0/cyc64))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// interleaveCfg sets the MC interleave granularity.
func interleaveCfg(bytes uint64) config.Config {
	cfg := config.Default()
	cfg.InterleaveBytes = bytes
	return cfg
}

// AblInterleave compares 256 B vs 4 KB interleaving across the controllers:
// fine interleaving spreads epochs over both MCs, the regime where eager
// flushing matters most (§III).
func (h *Harness) AblInterleave() (*Table, error) {
	t := &Table{
		ID:     "abl_interleave",
		Title:  "Ablation: MC interleave granularity (cycles, 4 threads)",
		Header: []string{"workload", "model", "256B", "4KB", "256B/4KB"},
	}
	models := []string{model.NameHOPSRP, model.NameASAPRP}
	var specs []runspec.RunSpec
	for _, wl := range ablationWorkloads {
		for _, mdl := range models {
			specs = append(specs, h.jobCfg(interleaveCfg(256), wl, mdl, 4), h.jobCfg(interleaveCfg(4096), wl, mdl, 4))
		}
	}
	rs, err := h.eng.runAll(specs)
	if err != nil {
		return nil, err
	}
	for w, wl := range ablationWorkloads {
		for m, mdl := range models {
			i := 2 * (w*len(models) + m)
			fr, cr := rs[i], rs[i+1]
			fine := float64(fr.Cycles)
			coarse := float64(cr.Cycles)
			t.Rows = append(t.Rows, []string{
				wl, mdl, fmt.Sprintf("%.0f", fine), fmt.Sprintf("%.0f", coarse), f2(fine / coarse),
			})
		}
	}
	return t, nil
}
