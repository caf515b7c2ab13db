package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"asap/internal/harness"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/runspec"
	"asap/internal/trace"
	"asap/internal/workload"
)

// fig8Threads is Figure 8's thread count (4 cores, 2 MCs).
const fig8Threads = 4

// runFig8 is the asapfig path: Figure 8 from a fresh serial harness, again
// and again. Before the loop it checks the seed-1 figure against the
// golden table. Set-up generates the traces of one figure, the first thing
// every figure of the loop does. Each timed iteration takes a new seed, so
// the process-global trace cache is as cold as in a fresh asapfig process.
//
// An item is one simulation, 84 per figure. Item boundaries are successive
// Options.Observe calls, with the figure's start and end as the outer
// edges, so the items of an iteration add up to its wall time: an item is
// one run plus the trace generation, construction and bookkeeping before
// the next. The traced run instead replays each figure layer by layer and
// checks the replay reproduces the figure.
func runFig8(r *runner) error {
	golden, err := os.ReadFile(filepath.Join(r.opt.root, "testdata", "golden", "fig8.csv"))
	if err != nil {
		return err
	}
	tb, err := harness.New(harness.Options{Ops: 80, Seed: 1, Parallel: 1}).Experiment("fig8")
	if err != nil {
		return err
	}
	r.check(tb.CSV() == string(golden), max(fig8Sims(tb), 1), "fig8 at seed 1 differs from testdata/golden/fig8.csv:\n%s", tb.CSV())

	// Set-up is not spanned: harness.self_frac takes the workload layer's
	// time to be the replayed figures' alone.
	h := harness.New(harness.Options{Ops: r.sz.fig8Ops, Seed: r.opt.seed<<16 | 1, Parallel: 1})
	if err := r.setup(func() error {
		for _, wl := range harness.Workloads() {
			if _, err := workload.Generate(wl, h.Spec(wl, model.NameBaseline, fig8Threads).Params); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	r.startLoop()
	for i := 0; r.more(); i++ {
		seed := r.opt.seed<<16 | uint64(i+2) // never 1: the golden figure cached seed 1's traces
		if r.tr != nil {
			r.fig8Replay(seed, i == 0)
		} else {
			r.fig8Figure(seed)
		}
	}
	r.endLoop()
	return nil
}

// fig8Figure runs one timed figure.
func (r *runner) fig8Figure(seed uint64) {
	var marks []time.Time
	ops := 0
	h := harness.New(harness.Options{Ops: r.sz.fig8Ops, Seed: seed, Parallel: 1,
		Observe: func(_ runspec.RunSpec, m *machine.Machine) {
			marks = append(marks, time.Now())
			ops += m.Trace().TotalOps()
		}})
	start := time.Now()
	tb, err := h.Experiment("fig8")
	end := time.Now()
	if err != nil || len(marks) == 0 {
		r.check(false, max(len(marks), 1), "fig8 seed %d: %v", seed, err)
		return
	}
	edges := append(append([]time.Time{start}, marks[1:]...), end)
	for k := 1; k < len(edges); k++ {
		r.item(edges[k-1], edges[k])
	}
	r.ops += float64(ops)
	r.check(fig8Sims(tb) == len(marks), len(marks), "fig8 seed %d: %d simulations for a %d-row table", seed, len(marks), len(tb.Rows))
}

// fig8Replay runs the figure through the harness as the reference, then
// replays its simulations in harness order through workload.Generate,
// machine.New and Run, and checks the replay reproduces every speedup.
func (r *runner) fig8Replay(seed uint64, first bool) {
	h := harness.New(harness.Options{Ops: r.sz.fig8Ops, Seed: seed, Parallel: 1})
	sp := r.tr.begin("harness.experiment", "", -1)
	tb, err := h.Experiment("fig8")
	r.tr.end(sp, 0)
	if err != nil {
		r.check(false, 1, "fig8 seed %d: %v", seed, err)
		return
	}
	models := append([]string{model.NameBaseline}, tb.Header[1:]...)
	rows := tb.Rows[:len(tb.Rows)-1]
	sums := make([]float64, len(models)-1)
	for _, row := range rows {
		wl := row[0]
		var tr *trace.Trace
		cycles := make([]float64, len(models))
		for j, mdl := range models {
			spec := h.Spec(wl, mdl, fig8Threads)
			item := r.tr.beginItem("fig8.sim", 0)
			start := time.Now()
			if tr == nil {
				gen := r.tr.begin("workload", wl, item)
				tr, err = workload.Generate(wl, spec.Params)
				r.tr.end(gen, 0)
			}
			var res machine.Result
			var m *machine.Machine
			if err == nil {
				res, m, err = r.simulate(item, spec.Config, mdl, tr)
			}
			r.tr.end(item, 0)
			r.item(start, time.Now())
			if err != nil {
				r.check(false, 1, "fig8 seed %d %s/%s: %v", seed, wl, mdl, err)
				return
			}
			r.ops += float64(tr.TotalOps())
			if first {
				r.sim.add(res, m)
			}
			cycles[j] = float64(res.Cycles)
		}
		got := make([]string, len(models)-1)
		for j := range got {
			sp := cycles[0] / cycles[j+1]
			sums[j] += sp
			got[j] = fmt.Sprintf("%.2f", sp)
		}
		r.check(fmt.Sprint(got) == fmt.Sprint(row[1:]), len(models), "fig8 seed %d %s: replay speedups %v, table %v", seed, wl, got, row[1:])
	}
	avg := make([]string, len(sums))
	for j, s := range sums {
		avg[j] = fmt.Sprintf("%.2f", s/float64(len(rows)))
	}
	last := tb.Rows[len(tb.Rows)-1]
	r.check(fmt.Sprint(avg) == fmt.Sprint(last[1:]), 1, "fig8 seed %d: replay averages %v, table %v", seed, avg, last[1:])
}

// fig8Sims counts the simulations behind a well-formed Figure 8 table:
// per workload row, the baseline plus one per model column. A malformed
// table counts 0.
func fig8Sims(tb *harness.Table) int {
	if len(tb.Rows) != len(harness.Workloads())+1 {
		return 0
	}
	for _, row := range tb.Rows {
		if len(row) != len(tb.Header) {
			return 0
		}
		for _, c := range row[1:] {
			if v, err := strconv.ParseFloat(c, 64); err != nil || v <= 0 {
				return 0
			}
		}
	}
	return (len(tb.Rows) - 1) * len(tb.Header)
}
