package harness

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/runspec"
)

func TestTableText(t *testing.T) {
	tb := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	out := tb.Text()
	if !strings.Contains(out, "== x: demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "# a note") {
		t.Error("missing note")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	// Columns align: "333" forces column width 3.
	if !strings.HasPrefix(lines[2], "1  ") {
		t.Errorf("row not padded: %q", lines[2])
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"x,y", `say "hi"`}},
	}
	out := tb.CSV()
	want := "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := Experiments()
	wantIDs := []string{"fig2", "fig3", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"tab4", "tab5", "abl_rt", "abl_pb", "abl_eager", "abl_xpbuf", "abl_interleave", "abl_nvmbw"}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range wantIDs {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	h := New(QuickOptions())
	if _, err := h.Experiment("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestExperimentsPaperOrder pins the order Experiments returns, which
// `asapfig all` and `asapfig -list` print: the figures and tables in paper
// order, then the ablations and extensions in EXPERIMENTS.md's order.
func TestExperimentsPaperOrder(t *testing.T) {
	want := []string{"fig2", "fig3", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "tab4", "tab5",
		"abl_nvmbw", "abl_eager", "abl_pb", "abl_rt", "abl_xpbuf", "abl_interleave", "abl_strands"}
	if got := Experiments(); !slices.Equal(got, want) {
		t.Fatalf("Experiments() = %v, want %v", got, want)
	}
}

func TestWorkloadsExcludesBandwidth(t *testing.T) {
	for _, wl := range Workloads() {
		if wl == "bandwidth" {
			t.Fatal("bandwidth micro must not be in the Table III workload list")
		}
	}
	if len(Workloads()) != 14 {
		t.Fatalf("expected 14 Table III workloads, got %d", len(Workloads()))
	}
}

// TestRunDeterminism: the harness cache must be consistent — and two
// harnesses with the same options must agree on cycle counts.
func TestRunDeterminism(t *testing.T) {
	a := New(QuickOptions())
	b := New(QuickOptions())
	ra, err := a.RunSpec(a.Spec("cceh", "asap_rp", 4))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.RunSpec(b.Spec("cceh", "asap_rp", 4))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Cycles != rb.Cycles || ra.PMWrites != rb.PMWrites {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d cycles/writes",
			ra.Cycles, ra.PMWrites, rb.Cycles, rb.PMWrites)
	}
	// Cached second run returns the identical result.
	r2, err := a.RunSpec(a.Spec("cceh", "asap_rp", 4))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cycles != ra.Cycles {
		t.Fatal("cache returned a different result")
	}
}

// TestTab5Static: the hardware-cost table needs no simulation and must
// always produce 4 rows.
func TestTab5Static(t *testing.T) {
	h := New(QuickOptions())
	tb, err := h.Experiment("tab5")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("tab5 rows = %d", len(tb.Rows))
	}
}

// TestFigureShapes: one shared quick harness; every figure has the expected
// table structure and physically sensible values.
func TestFigureShapes(t *testing.T) {
	h := New(QuickOptions())
	nWL := len(Workloads())

	fig2, err := h.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig2.Rows) != nWL {
		t.Errorf("fig2 rows = %d, want %d", len(fig2.Rows), nWL)
	}

	fig3, err := h.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig3.Rows) != nWL+1 { // + average
		t.Errorf("fig3 rows = %d", len(fig3.Rows))
	}

	fig8, err := h.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig8.Rows) != nWL+1 || len(fig8.Header) != 6 {
		t.Errorf("fig8 shape %dx%d", len(fig8.Rows), len(fig8.Header))
	}
	for _, row := range fig8.Rows {
		for _, cell := range row[1:] {
			var v float64
			if _, err := fmtSscan(cell, &v); err == nil && (v <= 0 || v > 50) {
				t.Errorf("fig8 speedup %q out of physical range", cell)
			}
		}
	}

	fig12, err := h.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig12.Rows[:len(fig12.Rows)-1] {
		var occ int
		if _, err := fmtSscan(row[1], &occ); err == nil && occ > 32 {
			t.Errorf("fig12: RT occupancy %d exceeds its 32-entry capacity", occ)
		}
	}

	fig13, err := h.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig13.Rows) != 3 {
		t.Errorf("fig13 rows = %d", len(fig13.Rows))
	}
}

// TestTablesOrder: Tables returns tables in request order regardless of
// completion order, and wraps failures with the experiment ID.
func TestTablesOrder(t *testing.T) {
	h := New(Options{Ops: 30, Seed: 1, Parallel: 4})
	ids := []string{"tab5", "fig13", "abl_interleave"}
	tbs, err := h.Tables(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, tb := range tbs {
		if tb.ID != ids[i] {
			t.Errorf("tables[%d].ID = %s, want %s", i, tb.ID, ids[i])
		}
	}
	if _, err := h.Tables([]string{"tab5", "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "bogus") {
		t.Errorf("Tables error = %v, want wrapped with failing ID", err)
	}
}

// countRuns builds a harness whose Observe hook counts the distinct specs
// it sees; the returned function reports that count.
func countRuns(opts Options) (*Harness, func() int) {
	var mu sync.Mutex
	seen := make(map[string]bool)
	opts.Observe = func(spec runspec.RunSpec, _ *machine.Machine) {
		mu.Lock()
		seen[spec.MustHash()] = true
		mu.Unlock()
	}
	return New(opts), func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(seen)
	}
}

// TestExperimentsRunEachSpecOnce: the whole campaign, serial and on eight
// workers, and each experiment on its own, executes exactly one
// simulation per distinct spec. A second path to a spec's run (a cache
// beside the Result cache, or a body that runs what its list missed)
// shows up here as an execution the distinct specs do not account for.
func TestExperimentsRunEachSpecOnce(t *testing.T) {
	check := func(t *testing.T, h *Harness, distinct func() int) {
		t.Helper()
		if runs, _ := h.Perf(); runs != int64(distinct()) {
			t.Errorf("executed %d simulations for %d distinct specs", runs, distinct())
		}
	}
	for _, parallel := range []int{1, 8} {
		t.Run(fmt.Sprintf("all_parallel%d", parallel), func(t *testing.T) {
			h, distinct := countRuns(Options{Ops: 80, Seed: 1, Parallel: parallel})
			if _, err := h.Tables(Experiments()); err != nil {
				t.Fatal(err)
			}
			check(t, h, distinct)
		})
	}
	for _, id := range Experiments() {
		t.Run(id, func(t *testing.T) {
			h, distinct := countRuns(Options{Ops: 20, Seed: 1, Parallel: 2})
			if _, err := h.Experiment(id); err != nil {
				t.Fatal(err)
			}
			check(t, h, distinct)
		})
	}
}

// TestRunAllSerialOrder: a serial engine runs the list in order on the
// calling goroutine (Observe sees the specs in list order, a repeated
// spec once) and returns the results in list order.
func TestRunAllSerialOrder(t *testing.T) {
	var order []string
	h := New(Options{Ops: 20, Seed: 1, Parallel: 1,
		Observe: func(spec runspec.RunSpec, _ *machine.Machine) { order = append(order, spec.String()) }})
	specs := []runspec.RunSpec{
		h.Spec("cceh", model.NameASAPRP, 2),
		h.Spec("nstore", model.NameBaseline, 4),
		h.Spec("cceh", model.NameASAPRP, 2),
		h.Spec("cceh", model.NameHOPSRP, 1),
	}
	rs, err := h.eng.runAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{specs[0].String(), specs[1].String(), specs[3].String()}
	if !slices.Equal(order, want) {
		t.Fatalf("Observe saw %v, want %v", order, want)
	}
	for i, spec := range specs {
		r, err := h.RunSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if rs[i].ModelName != spec.Model || rs[i].Cycles != r.Cycles || !slices.Equal(rs[i].PerCore, r.PerCore) {
			t.Errorf("result %d is not %s's", i, spec)
		}
	}
}

// TestRunAllErrors: a serial engine returns the first failing spec's
// error and runs nothing after it; a parallel engine returns the error of
// the first failing spec in list order, whichever failed first in time.
func TestRunAllErrors(t *testing.T) {
	var ran []string
	h := New(Options{Ops: 20, Seed: 1, Parallel: 1,
		Observe: func(spec runspec.RunSpec, _ *machine.Machine) { ran = append(ran, spec.Workload) }})
	_, err := h.eng.runAll([]runspec.RunSpec{
		h.Spec("cceh", model.NameASAPRP, 2),
		h.Spec("no_such_workload", model.NameASAPRP, 2),
		h.Spec("nstore", model.NameASAPRP, 2),
	})
	if err == nil || !strings.Contains(err.Error(), `unknown workload "no_such_workload"`) {
		t.Fatalf("serial: err = %v, want the unknown-workload error", err)
	}
	if !slices.Equal(ran, []string{"cceh"}) {
		t.Fatalf("serial: ran %v, want only the spec before the failure", ran)
	}
	// KeepGoing keeps each failure under its own spec, so the two
	// failures stay distinct and the list order alone picks the error.
	for i := 0; i < 5; i++ {
		h := New(Options{Ops: 20, Seed: 1, Parallel: 4, KeepGoing: true})
		_, err := h.eng.runAll([]runspec.RunSpec{
			h.Spec("cceh", model.NameASAPRP, 2),
			h.Spec("no_such_a", model.NameASAPRP, 2),
			h.Spec("nstore", model.NameASAPRP, 2),
			h.Spec("no_such_b", model.NameASAPRP, 2),
		})
		if err == nil || !strings.Contains(err.Error(), `"no_such_a"`) {
			t.Fatalf("parallel: err = %v, want no_such_a's error", err)
		}
	}
}

func fmtSscan(s string, v interface{}) (int, error) { return fmt.Sscan(s, v) }
