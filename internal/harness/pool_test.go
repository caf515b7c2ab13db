package harness

import (
	"slices"
	"testing"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/workload"
)

// distSummary is what a table reads from a distribution.
type distSummary struct {
	count, p50, p99, max uint64
	mean                 float64
}

func summarizeDist(r machine.Result, name string) distSummary {
	d := r.Stats.Dist(name)
	if d == nil {
		return distSummary{}
	}
	return distSummary{d.Count(), d.Percentile(0.5), d.Percentile(0.99), d.Max(), d.Mean()}
}

// TestPooledResultKeepsItsStats: a cached Result must not alias the
// machine that produced it. Spec A runs and its machine goes back to the
// pool; spec B, another workload on the same config and model, resets and
// runs that machine. A's counters and pbOccupancy distribution must read
// as they did, and as a machine built for A alone reports them.
func TestPooledResultKeepsItsStats(t *testing.T) {
	h := New(Options{Ops: 40, Seed: 1, Parallel: 1})
	a, err := h.RunSpec(h.Spec("cceh", model.NameASAPEP, 4))
	if err != nil {
		t.Fatal(err)
	}
	wantStats, wantDist := a.Stats.String(), summarizeDist(a, "pbOccupancy")
	if wantDist.count == 0 {
		t.Fatal("spec A sampled no persist-buffer occupancy")
	}
	b, err := h.RunSpec(h.Spec("dash_eh", model.NameASAPEP, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, builds, resets := h.eng.machines(); builds != 1 || resets != 1 {
		t.Fatalf("built %d and reset %d machines, want spec B to reset spec A's", builds, resets)
	}
	if a.Stats == b.Stats {
		t.Fatal("spec A and spec B share one stat set")
	}
	if got := a.Stats.String(); got != wantStats {
		t.Errorf("spec A's stats changed when its machine ran spec B:\nwas:\n%s\nnow:\n%s", wantStats, got)
	}
	if got := summarizeDist(a, "pbOccupancy"); got != wantDist {
		t.Errorf("spec A's pbOccupancy changed when its machine ran spec B: was %+v, now %+v", wantDist, got)
	}

	p := h.params(4)
	tr, err := workload.Generate("cceh", p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(h.cfgFor(4), model.NameASAPEP, tr)
	if err != nil {
		t.Fatal(err)
	}
	if own := m.Run(0); own.Stats.String() != wantStats || summarizeDist(own, "pbOccupancy") != wantDist {
		t.Errorf("spec A's pooled result differs from its own machine's:\npooled:\n%s\nown:\n%s", wantStats, own.Stats)
	}
}

// TestFig8MachineReuse pins the pool's traffic: a serial Figure 8 compiles
// one plan per trace (its 14 workloads share one config), builds one
// machine per (config, model) key it rotates through — the baseline and
// five models — and resets those for the other 78 of its 84 runs.
func TestFig8MachineReuse(t *testing.T) {
	h := New(Options{Ops: 30, Seed: 1, Parallel: 1})
	if _, err := h.Experiment("fig8"); err != nil {
		t.Fatal(err)
	}
	if _, runs := h.eng.execs(); runs != 84 {
		t.Fatalf("Figure 8 ran %d simulations, want 84", runs)
	}
	if plans, builds, resets := h.eng.machines(); plans != 14 || builds != 6 || resets != 78 {
		t.Fatalf("Figure 8 compiled %d plans, built %d machines and reset %d, want 14, 6 and 78", plans, builds, resets)
	}
}

// TestPoolEvictsLeastRecentlyUsed: past maxIdleMachines the pool drops
// the machine whose key was used longest ago, not the one pooled first.
func TestPoolEvictsLeastRecentlyUsed(t *testing.T) {
	h := New(Options{Ops: 30, Seed: 1, Parallel: 1})
	run := func(key int, wl string) {
		spec := h.Spec(wl, model.NameASAPEP, 4)
		spec.Config.RTEntries += key
		if _, err := h.RunSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	var want []int
	for key := 0; key < maxIdleMachines; key++ {
		run(key, "cceh")
	}
	run(0, "dash_eh")            // key 0's machine is reset and pooled again
	run(maxIdleMachines, "cceh") // one key too many: key 1 goes
	for key := 2; key < maxIdleMachines; key++ {
		want = append(want, key)
	}
	want = append(want, 0, maxIdleMachines)
	var got []int
	for _, im := range h.eng.idle {
		got = append(got, im.key.cfg.RTEntries-config.Default().RTEntries)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("the pool holds the machines of keys %v, want %v", got, want)
	}
	if _, builds, resets := h.eng.machines(); builds != maxIdleMachines+1 || resets != 1 {
		t.Fatalf("built %d and reset %d machines, want %d and 1", builds, resets, maxIdleMachines+1)
	}
}
