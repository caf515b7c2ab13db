package harness

// The experiment engine: a concurrency-safe, singleflight-deduplicated
// cache of workload traces and simulation runs, executed by a bounded
// worker pool on machines it resets and reuses across the runs of one
// (config, model).
//
// Every simulation in the evaluation is a pure function of its
// runspec.RunSpec — (workload, generator params, model, machine config)
// — and each machine.Machine instance is single-goroutine deterministic,
// so independent simulations may run concurrently without changing any
// result: parallel output is byte-identical to serial output. Each
// experiment hands the engine its whole run list in one runAll call, which
// runs the list in order on a serial engine and fans it out on a parallel
// one. The engine guarantees each spec is computed exactly once
// (fig8/fig9/fig10 request heavily overlapping runs), bounds concurrently
// executing simulations to the pool size, converts panics on worker
// goroutines into errors, and —
// unless Options.KeepGoing is set (asapd serves unrelated requests; one
// bad spec must not poison the service) — cancels outstanding work when
// any simulation fails (first error wins and is reported as the cause
// everywhere).

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/obs"
	"asap/internal/runspec"
	"asap/internal/trace"
	"asap/internal/workload"
)

// poolKey names the runs an idle machine can serve: Reset keeps a
// machine's config and model and replaces its plan.
type poolKey struct {
	cfg   config.Config
	model string
}

// maxIdleMachines bounds the engine's pool of idle machines. Figure 8
// rotates through six (config, model) keys per workload — the baseline and
// five models — so a serial figure builds six machines and resets them for
// every later run; sweeps that rotate through more keys than the pool
// holds evict the least recently used machine.
const maxIdleMachines = 8

// idleMachine is one pooled machine, ready for Reset.
type idleMachine struct {
	key poolKey
	m   *machine.Machine
}

// traceKey identifies one generated trace. workload.Params is a flat
// comparable struct, so the key is directly usable in a map.
type traceKey struct {
	wl string
	p  workload.Params
}

// planKey caches a trace's plan under a config: a spec without its model.
type planKey runspec.RunSpec

// call is one singleflight computation: the first requester of a key
// becomes the leader and computes; everyone else waits on ready.
type call struct {
	ready chan struct{} // closed once val/err are final
	val   any
	err   error
}

// engine executes simulations with bounded concurrency and caches every
// outcome (including errors — a failed simulation stays failed; results
// are deterministic, so a cached error is as final as a cached result).
type engine struct {
	sem       chan struct{} // bounds concurrently executing simulations
	ctx       context.Context
	cancel    context.CancelCauseFunc
	traceDir  string // when non-empty, capture trace artifacts per run
	keepGoing bool   // don't cancel the engine on the first error
	observe   func(runspec.RunSpec, *machine.Machine)

	mu    sync.Mutex
	calls map[any]*call
	// idle holds machines whose run completed, least recently used first,
	// for build to Reset instead of constructing anew.
	idle []idleMachine

	// traceGens and runExecs count leader executions (not cache hits);
	// the tests use them to prove every spec runs once, and asapd's
	// /v1/stats reports them. simCycles accumulates the simulated cycles of
	// executed runs for cycles/sec reporting.
	traceGens atomic.Int64
	runExecs  atomic.Int64
	simCycles atomic.Uint64
	// plans counts the plans compiled; builds and resets count the
	// machines build constructed and the pooled machines it reset.
	plans, builds, resets atomic.Int64
}

// newEngine builds an engine from the harness options; Parallel <= 0
// selects GOMAXPROCS.
func newEngine(opts Options) *engine {
	parallel := opts.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	return &engine{
		sem:       make(chan struct{}, parallel),
		ctx:       ctx,
		cancel:    cancel,
		traceDir:  opts.TraceDir,
		keepGoing: opts.KeepGoing,
		observe:   opts.Observe,
		calls:     make(map[any]*call),
	}
}

// workers reports the pool size.
func (e *engine) workers() int { return cap(e.sem) }

// once runs fn exactly once per key, caching the outcome. Concurrent
// callers of the same key block until the leader finishes. Any error
// cancels the engine so outstanding leaders stop before simulating (the
// first error becomes the cancellation cause reported everywhere) —
// unless the engine keeps going, in which case the error is cached for
// its own key and other keys are untouched.
func (e *engine) once(key any, fn func() (any, error)) (any, error) {
	e.mu.Lock()
	if c, ok := e.calls[key]; ok {
		e.mu.Unlock()
		<-c.ready
		return c.val, c.err
	}
	c := &call{ready: make(chan struct{})}
	e.calls[key] = c
	e.mu.Unlock()

	c.val, c.err = fn()
	if c.err != nil && !e.keepGoing {
		e.cancel(c.err) // no-op after the first cancellation
	}
	close(c.ready)
	return c.val, c.err
}

// capture converts a panic below fn — the simulator's internal invariant
// checks still panic — into a returned error, so a failure on a worker
// goroutine propagates through the pool instead of killing the process.
func capture(what string, fn func() (any, error)) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", what, r)
		}
	}()
	return fn()
}

// protect is the worker-slot wrapper for simulation leaders: it waits for
// a pool slot, honours cancellation (returning the root-cause error of
// whichever simulation failed first), and captures panics.
func (e *engine) protect(what string, fn func() (any, error)) (any, error) {
	select {
	case <-e.ctx.Done():
		return nil, context.Cause(e.ctx)
	case e.sem <- struct{}{}:
	}
	defer func() { <-e.sem }()
	if e.ctx.Err() != nil { // cancelled while we raced the slot
		return nil, context.Cause(e.ctx)
	}
	return capture(what, fn)
}

// trace returns the generated trace for key, computing it at most once per
// engine, which holds it for as long as the engine lives: no trace is
// shared across harnesses or outlives its own. Trace generation
// deliberately does not take a pool slot: it is always
// invoked either inline by a run leader that already holds one, or
// directly from a serial experiment body, so a slot-per-trace would risk
// leaders deadlocking behind runs that wait for their traces.
func (e *engine) trace(k traceKey) (*trace.Trace, error) {
	v, err := e.once(k, func() (any, error) {
		return capture("workload "+k.wl, func() (any, error) {
			e.traceGens.Add(1)
			return workload.Generate(k.wl, k.p)
		})
	})
	if err != nil {
		return nil, err
	}
	return v.(*trace.Trace), nil
}

// run executes the simulation for spec, computing it at most once. After
// a successful run and artifact flush the machine goes back to the pool,
// and the cached Result holds its own copy of the stats; a machine whose
// run failed or panicked is dropped.
func (e *engine) run(k runspec.RunSpec) (machine.Result, error) {
	v, err := e.once(k, func() (any, error) {
		return e.protect(k.String(), func() (any, error) {
			m, err := e.build(k)
			if err != nil {
				return nil, err
			}
			flush := e.instrument(k, m)
			e.runExecs.Add(1)
			r := m.Run(0)
			if r.Cycles == 0 {
				return nil, fmt.Errorf("harness: %s produced zero cycles", k)
			}
			e.simCycles.Add(uint64(r.Cycles))
			if err := flush(); err != nil {
				return nil, err
			}
			r.Stats = r.Stats.Clone()
			e.release(poolKey{k.Config, k.Model}, m)
			return r, nil
		})
	})
	if err != nil {
		return machine.Result{}, err
	}
	return v.(machine.Result), nil
}

// runAll executes specs and returns their results in list order. A serial
// engine runs them in that order on the calling goroutine and stops at the
// first error. A parallel engine fans them out across the worker pool and
// reports the error of the first failing spec in list order (a spec
// cancelled by an earlier failure reports that failure's root cause).
func (e *engine) runAll(specs []runspec.RunSpec) ([]machine.Result, error) {
	out := make([]machine.Result, len(specs))
	if e.workers() == 1 {
		for i, k := range specs {
			r, err := e.run(k)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	wg.Add(len(specs))
	for i, k := range specs {
		go func() {
			defer wg.Done()
			out[i], errs[i] = e.run(k)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// build assembles the machine for spec: an idle machine of the spec's
// config and model Reset from the plan of the spec's trace under its
// config, or a new one. The plan is compiled once per engine, keyed by the
// spec without its model, and shared by the runs of every model. The
// Observe hook fires here, before Run, so callers can attach obs sinks —
// asapd attaches a progress gauge.
func (e *engine) build(k runspec.RunSpec) (*machine.Machine, error) {
	pk := planKey(k)
	pk.Model = ""
	v, err := e.once(pk, func() (any, error) {
		tr, err := e.trace(traceKey{wl: k.Workload, p: k.Params})
		if err != nil {
			return nil, err
		}
		e.plans.Add(1)
		return capture("plan "+k.Workload, func() (any, error) { return machine.Compile(k.Config, tr) })
	})
	if err != nil {
		return nil, err
	}
	p := v.(*machine.Plan)
	m := e.acquire(poolKey{k.Config, k.Model})
	if m != nil {
		err = m.Reset(p)
		e.resets.Add(1)
	} else {
		m, err = machine.NewFromPlan(p, k.Model)
		e.builds.Add(1)
	}
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", k, err)
	}
	if e.observe != nil {
		e.observe(k, m)
	}
	return m, nil
}

// acquire takes the most recently pooled machine of key out of the pool,
// or returns nil if none is idle.
func (e *engine) acquire(key poolKey) *machine.Machine {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := len(e.idle) - 1; i >= 0; i-- {
		if e.idle[i].key == key {
			m := e.idle[i].m
			e.idle = slices.Delete(e.idle, i, i+1)
			return m
		}
	}
	return nil
}

// release pools m, idle after a completed run, under key, evicting the
// least recently pooled machine past maxIdleMachines.
func (e *engine) release(key poolKey, m *machine.Machine) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.idle = append(e.idle, idleMachine{key, m})
	if len(e.idle) > maxIdleMachines {
		e.idle = slices.Delete(e.idle, 0, 1)
	}
}

// execs reports leader executions so far (traces generated, runs
// simulated) — cache hits excluded.
func (e *engine) execs() (traces, runs int64) {
	return e.traceGens.Load(), e.runExecs.Load()
}

// machines reports how many plans the engine has compiled, machines build
// has constructed and pooled machines it has reset.
func (e *engine) machines() (plans, builds, resets int64) {
	return e.plans.Load(), e.builds.Load(), e.resets.Load()
}

// instrument attaches a fresh collector and default-interval timeline to
// m when trace capture is enabled, and returns the function that
// serializes both artifacts after the run. Each leader owns its own
// collector, so parallel captures never share mutable state. With capture
// disabled it returns a no-op, keeping the call sites unconditional.
func (e *engine) instrument(k runspec.RunSpec, m *machine.Machine) func() error {
	if e.traceDir == "" {
		return func() error { return nil }
	}
	col := obs.NewCollector(m.Eng.Now)
	m.AttachTracer(col)
	tl := m.EnableTimeline(0)
	return func() error { return e.writeArtifacts(k, col, tl) }
}

// writeArtifacts serializes one run's Chrome trace and occupancy timeline
// into the engine's trace directory. Only a spec's leader runs it, so each
// artifact is written once.
func (e *engine) writeArtifacts(k runspec.RunSpec, col *obs.Collector, tl *obs.Timeline) error {
	name := artifactName(k)
	if err := os.MkdirAll(e.traceDir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(e.traceDir, name+".trace.json"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	buf.Reset()
	if err := tl.WriteCSV(&buf); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.traceDir, name+".timeline.csv"), buf.Bytes(), 0o644)
}

// artifactName derives a stable, filesystem-safe name for a run's trace
// artifacts. Workload/model/threads make the common case readable; a
// prefix of the spec's content address separates ablation runs that
// differ only in machine configuration or generator parameters, and ties
// each artifact to the same hash asapd's store files the result under.
func artifactName(k runspec.RunSpec) string {
	return fmt.Sprintf("%s_%s_%dt_%s", k.Workload, k.Model, k.Params.Threads, k.MustHash()[:8])
}
