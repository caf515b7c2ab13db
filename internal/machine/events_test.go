package machine

import (
	"testing"

	"asap/internal/config"
	"asap/internal/model"
	"asap/internal/workload"
)

// pinnedEvents is each model's dispatch count on Fig. 8's cceh trace,
// pinned from the engine before it held direct successors in a register.
var pinnedEvents = map[string]uint64{
	"baseline":     10043,
	"hops_ep":      13848,
	"hops_rp":      13353,
	"asap_ep":      14490,
	"asap_rp":      14072,
	"eadr":         6001,
	"lbpp":         13475,
	"dpo":          13321,
	"lrp":          13256,
	"vorpal":       13530,
	"strandweaver": 14025,
	"pmem_spec":    10431,
}

// TestEventCountsPinned runs every model on one Fig. 8 workload (cceh,
// four threads of 80 ops, seed 1). The engine's dispatch counter must
// equal the pinned counts: an event dispatched from the direct-successor
// register counts like any other, so the per-layer event counts (sim.events, machine_run.events)
// do not move with the queue's internals.
func TestEventCountsPinned(t *testing.T) {
	p := workload.Default()
	p.OpsPerThread = 80
	tr, err := workload.Generate("cceh", p)
	if err != nil {
		t.Fatal(err)
	}
	for _, mn := range model.ExtendedNames() {
		m, err := New(config.Default(), mn, tr)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(0)
		if got, want := m.Eng.Dispatched(), pinnedEvents[mn]; got != want {
			t.Errorf("%s: %d events dispatched, pinned %d", mn, got, want)
		}
	}
}
