package crash

import (
	"fmt"
	"sort"

	"asap/internal/checkpoint"
	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/rng"
	"asap/internal/sim"
	"asap/internal/trace"
)

// CampaignResult summarizes a crash-injection campaign.
type CampaignResult struct {
	Model     string
	Runs      int
	Crashes   int // runs where the crash fired before completion
	Failures  []Report
	MaxCycles sim.Cycles
}

// String renders a one-line summary.
func (c CampaignResult) String() string {
	return fmt.Sprintf("%-10s runs=%d crashes=%d failures=%d", c.Model, c.Runs, c.Crashes, len(c.Failures))
}

// Campaign runs the trace under the model repeatedly, injecting a crash at
// a pseudo-random cycle within the run each time, and checks every
// resulting NVM image. The first clean (no-crash) run establishes the run
// length used to spread crash points.
//
// The campaign is checkpoint-forked: instead of rebuilding a machine and
// re-simulating the prefix for each of the N injection points (O(N·T)),
// it simulates one machine along the sorted injection points and forks a
// frontier checkpoint per injection. The frontier moves forward in strides
// of ~T/64, each move an in-place Recapture that reuses the checkpoint's
// storage, and a fork re-simulates only the short suffix from the frontier
// to its point — O(T) total simulation, about 64 captures at most, and one
// O(state) rewind plus a sub-stride suffix per point. Injection
// points drawn past the last simulated cycle never alter the image (the
// crash fires after the drain), so they are counted and answered with the
// reference check without touching a machine. Results — crash counts,
// failure reports, report order — are byte-identical to the rebuild
// formulation (pinned by TestCampaignForkedMatchesRebuild, which runs both).
//
// The eADR model is excluded by callers: its persistence domain is the
// whole cache hierarchy, which the ADR crash path deliberately does not
// model (see DESIGN.md).
func Campaign(cfg config.Config, modelName string, tr *trace.Trace, runs int, seed uint64) (CampaignResult, error) {
	res := CampaignResult{Model: modelName, Runs: runs}
	r := rng.New(seed)

	// Reference run to learn the execution time. Start before capturing so
	// the cycle-zero checkpoint already holds the bootstrap events.
	m, err := machine.New(cfg, modelName, tr)
	if err != nil {
		return res, err
	}
	m.Start()
	cp, err := checkpoint.Capture(m)
	if err != nil {
		return res, err
	}
	refRes := m.Run(0)
	res.MaxCycles = refRes.Cycles
	if refRes.Cycles == 0 {
		return res, fmt.Errorf("crash: reference run of %s reported zero cycles", modelName)
	}
	// Verify the completed image too: after a clean run everything
	// committed must be durable once controllers drain.
	for _, mc := range m.MCs {
		mc.CrashFlush()
	}
	refRep := Check(m)
	if !refRep.OK {
		res.Failures = append(res.Failures, refRep)
	}

	// Draw every injection point in the original order (the stream of an
	// RNG is part of the campaign's identity), then visit them sorted so
	// the frontier machine only ever advances. Reports are reassembled in
	// draw order afterwards.
	ats := make([]sim.Cycles, runs)
	order := make([]int, runs)
	for i := range ats {
		// Crash points concentrate in the active window, including very
		// early cycles to catch initialization races.
		ats[i] = 1 + r.Uint64n(uint64(refRes.Cycles)+1)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if ats[order[a]] != ats[order[b]] {
			return ats[order[a]] < ats[order[b]]
		}
		return order[a] < order[b]
	})

	// Capture stride: a checkpoint costs O(machine state) while advancing
	// the clock costs O(events in the gap), so re-capturing at every
	// distinct injection point loses when points are dense. Instead the
	// frontier checkpoint moves in strides of ~T/64: a fork whose injection
	// point lies within the stride re-simulates the short suffix from the
	// last capture (deterministic, so results are unchanged), and only a
	// fork that advances past the stride pays for a recapture — in place,
	// into the storage of the instant it replaces.
	stride := refRes.Cycles / 64
	reports := make([]Report, runs)
	for _, idx := range order {
		at := ats[idx]
		res.Crashes++ // the injected crash always fires (post-drain at worst)
		if at > refRes.Cycles {
			// Past the final event: the machine has fully drained and the
			// ADR flush changes nothing, so the image equals the reference
			// image and the check is the reference check.
			reports[idx] = refRep
			continue
		}
		m = cp.Fork()
		if at-1 > cp.Cycle()+stride {
			m.Advance(at - 1)
			cp.Recapture()
		}
		m.CrashNow(at)
		reports[idx] = Check(m)
	}
	for i := range reports {
		if !reports[i].OK {
			res.Failures = append(res.Failures, reports[i])
		}
	}
	return res, nil
}
