package machine

import (
	"slices"
	"sync"
	"sync/atomic"

	"asap/internal/config"
)

// maxIdle bounds a Pool. Figure 8 rotates through six (config, model)
// pairs per workload — the baseline and five models — so a serial figure
// builds six machines and resets them for every later run; sweeps that
// rotate through more pairs than the pool holds evict the least recently
// used machine.
const maxIdle = 8

// Pool keeps machines idle between runs so a later run of the same config
// and model resets one instead of building one. It holds at most maxIdle
// machines, is safe for concurrent use, and its zero value is empty.
type Pool struct {
	mu   sync.Mutex
	idle []*Machine // least recently pooled first

	builds, resets atomic.Int64
}

// Get returns a machine ready to run the plan under the named model: the
// most recently pooled machine of the plan's config and model, Reset from
// the plan, or a new one.
func (p *Pool) Get(plan *Plan, modelName string) (*Machine, error) {
	if m := p.take(plan.cfg, modelName); m != nil {
		p.resets.Add(1)
		if err := m.Reset(plan); err != nil {
			return nil, err
		}
		return m, nil
	}
	p.builds.Add(1)
	return NewFromPlan(plan, modelName)
}

// take removes the most recently pooled machine of (cfg, modelName) from
// the pool, or returns nil if none is idle.
func (p *Pool) take(cfg config.Config, modelName string) *Machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if m := p.idle[i]; m.Cfg == cfg && m.Model.Name() == modelName {
			p.idle = slices.Delete(p.idle, i, i+1)
			return m
		}
	}
	return nil
}

// Put pools m, idle after a completed run, evicting the least recently
// pooled machine past maxIdle. A machine whose run failed or panicked
// must not be put back: its state is not known to Reset cleanly.
func (p *Pool) Put(m *Machine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle = append(p.idle, m)
	if len(p.idle) > maxIdle {
		p.idle = slices.Delete(p.idle, 0, 1)
	}
}

// Counts reports how many machines Get has built and how many pooled
// machines it has reset.
func (p *Pool) Counts() (builds, resets int64) {
	return p.builds.Load(), p.resets.Load()
}
