package machine

import (
	"fmt"
	"reflect"
	"testing"

	"asap/internal/config"
	"asap/internal/model"
	"asap/internal/sim"
	"asap/internal/workload"
)

// diffParams keeps the differential matrix affordable: every workload ×
// model × window combination runs, so each single run is small.
func diffParams() workload.Params {
	return workload.Params{Threads: 4, OpsPerThread: 80, KeyRange: 1024, ValueSize: 32, Seed: 7}
}

// runWindowed executes one workload × model pair and returns the result.
// window == 0 is one uninterrupted Run; otherwise the run is cut into
// Advance calls of window cycles each before a final Run drains what is
// left, the way the checkpoint and crash drivers step a machine.
func runWindowed(t *testing.T, wl, mdl string, window sim.Cycles) Result {
	t.Helper()
	tr, err := workload.Generate(wl, diffParams())
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(config.Default(), mdl, tr)
	if err != nil {
		t.Fatal(err)
	}
	if window != 0 {
		for to := window; !m.allDone() && !m.Eng.Halted(); to += window {
			m.Advance(to)
		}
	}
	res := m.Run(500_000_000)
	if !m.allDone() {
		t.Fatalf("%s/%s window=%d did not finish (cycle %d, finished %d/%d)",
			wl, mdl, window, m.Eng.Now(), m.finished, len(m.cores))
	}
	return res
}

// compareRuns asserts that a windowed run reproduced the uninterrupted
// one: same execution time, per-core finish times, media traffic,
// high-water marks, counters and distributions.
func compareRuns(t *testing.T, label string, whole, windowed Result) {
	t.Helper()
	if whole.Cycles != windowed.Cycles {
		t.Errorf("%s: cycles diverged: whole %d, windowed %d", label, whole.Cycles, windowed.Cycles)
	}
	if !reflect.DeepEqual(whole.PerCore, windowed.PerCore) {
		t.Errorf("%s: per-core finish diverged: whole %v, windowed %v", label, whole.PerCore, windowed.PerCore)
	}
	if whole.PMWrites != windowed.PMWrites || whole.PMReads != windowed.PMReads {
		t.Errorf("%s: media traffic diverged: whole %d/%d writes/reads, windowed %d/%d",
			label, whole.PMWrites, whole.PMReads, windowed.PMWrites, windowed.PMReads)
	}
	if whole.RTMaxOcc != windowed.RTMaxOcc || whole.WPQMaxOcc != windowed.WPQMaxOcc {
		t.Errorf("%s: high-water marks diverged: whole RT %d WPQ %d, windowed RT %d WPQ %d",
			label, whole.RTMaxOcc, whole.WPQMaxOcc, windowed.RTMaxOcc, windowed.WPQMaxOcc)
	}
	if !reflect.DeepEqual(whole.Stats.CounterValues(), windowed.Stats.CounterValues()) {
		t.Errorf("%s: counters diverged:\nwhole    %v\nwindowed %v",
			label, whole.Stats.CounterValues(), windowed.Stats.CounterValues())
	}
	if !reflect.DeepEqual(whole.Stats.DistValues(), windowed.Stats.DistValues()) {
		t.Errorf("%s: distributions diverged:\nwhole    %v\nwindowed %v",
			label, whole.Stats.DistValues(), windowed.Stats.DistValues())
	}
}

// TestShardedDifferential pins that the serial engine's schedule does not
// depend on how a run is cut into time windows: every workload × model
// pair, stepped through Advance in windows of 97, 1021 and 8191 cycles,
// must reproduce the uninterrupted run exactly. The name is kept from the
// sharded engine's serial-vs-sharded differential, which ran the same
// matrix through conservative time windows; that engine is removed, and
// the windowed stepping the checkpoint and crash drivers rely on is what
// remains to pin.
func TestShardedDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload × model × window matrix")
	}
	for _, wl := range workload.Names() {
		for _, mdl := range model.ExtendedNames() {
			wl, mdl := wl, mdl
			t.Run(wl+"/"+mdl, func(t *testing.T) {
				t.Parallel()
				whole := runWindowed(t, wl, mdl, 0)
				for _, w := range []sim.Cycles{97, 1021, 8191} {
					compareRuns(t, wl+"/"+mdl+fmt.Sprintf(" window %d", w), whole, runWindowed(t, wl, mdl, w))
				}
			})
		}
	}
}
