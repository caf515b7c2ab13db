// Package machine assembles a complete simulated system — cores replaying a
// trace, the cache hierarchy with its coherence directory, simulated
// spinlocks, the persistence model under test, and the memory controllers —
// and runs it to completion or to an injected crash.
package machine

import (
	"fmt"

	"asap/internal/cache"
	"asap/internal/config"
	"asap/internal/mem"
	"asap/internal/model"
	"asap/internal/obs"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
	"asap/internal/trace"
)

// SampleInterval is the period of the occupancy/blocked-cycles sampler.
const SampleInterval sim.Cycles = 200

// Typed-event kinds dispatched through Machine.RunEvent. The step, dfence,
// release and drain kinds double as the continuations (sim.Cont) the
// machine hands the model: the model resumes them, at once or after a
// stall, exactly once per operation.
const (
	mEvStep        = iota // resume core arg's next op
	mEvPStore             // issue core arg's staged persistent store to the model
	mEvOfence             // run the model's Ofence for core arg
	mEvDfence             // run the model's Dfence for core arg
	mEvSample             // periodic occupancy sampler
	mEvTimeline           // periodic timeline row
	mEvRelease            // run the model's Release for core arg's staged lock line
	mEvHandoff            // finish a contended acquire handed to core arg
	mEvDfenceDone         // core arg's dfence completed: close its trace span, step on
	mEvReleaseDone        // core arg's release work completed: store, tag and hand off the lock
	mEvDrained            // core arg's end-of-trace drain completed
	mEvCrash              // scheduled power failure
)

// Machine is one runnable system instance. Build with New, run with Run,
// and Reset it to run another trace under the same config and model.
type Machine struct {
	Eng    *sim.Engine
	Cfg    config.Config
	Model  model.Model
	Hier   *cache.Hierarchy
	MCs    []*persist.MC
	IL     *mem.Interleaver
	St     *stats.Set
	Ledger *Ledger

	plan  *Plan // what the trace and config decide; the rest is run state
	cores []*coreState
	// locks[i] is the state of the spinlock at the plan's lockLines[i].
	locks []lockState
	// pm marks each line of the plan's PM pages once a persistent store to
	// it issues (see Plan.pmWord).
	pm       []uint64
	wbbs     []*persist.WBB
	tokenSeq mem.Token
	finished int

	// Pre-resolved stat handles for the per-access and lock paths.
	cWbbParked, cWbbFullStalls     stats.Counter
	cLLCEvictionsDelayed           stats.Counter
	cPMLinesDropped                stats.Counter
	cLockContended                 stats.Counter
	cCyclesBlocked, cSampledCycles stats.Counter

	crashAt sim.Cycles
	Crashed bool
	started bool // initial per-core/sampler events scheduled (see Start)

	// link carries the model's flushes and commits to the controllers.
	link *persist.Link

	// tlVals is the timeline row scratch, reused across ticks.
	tlVals []uint64

	trc        obs.Tracer // nil unless tracing; every use must be nil-guarded
	coreTracks []obs.TrackID
	engTrack   obs.TrackID
	timeline   *obs.Timeline
	tlETs      bool          // timeline includes epoch-table columns
	progress   *obs.Progress // nil unless progress reporting; published by sample
	progressET model.EpochTabled
}

type coreState struct {
	id      int
	pc      int // index of the next op in the core's thread of the plan's trace
	pstores int // persistent stores issued so far (token origin index)
	finish  sim.Cycles
	done    bool

	waitingLock bool // a "lock wait" trace span is open for this core

	// pendLine/pendToken stage the persistent store issued when the pending
	// mEvPStore event fires. Valid because the core is serial: no second
	// store can be staged before the event dispatches.
	pendLine  mem.Line
	pendToken mem.Token

	// relLine/relTS stage the lock release in flight (mEvRelease plus the
	// mEvReleaseDone continuation); handoffLine stages the lock line of a
	// contended acquire handed to this core (mEvHandoff). One of each can
	// be pending per core: releases are ops of the serial core, and a core
	// receiving a handoff is parked on that acquire.
	relLine     mem.Line
	relTS       uint64
	handoffLine mem.Line
}

type lockState struct {
	held    bool
	holder  int
	waiters []int // parked cores, in arrival order
}

// Trace returns the trace this machine replays. Machines only read it, and
// checkpoint images embed it so a restored machine replays the same ops.
func (m *Machine) Trace() *trace.Trace { return m.plan.tr }

// Plan returns the plan the machine was last built or reset from.
func (m *Machine) Plan() *Plan { return m.plan }

// HasObservers reports whether any observability sink (tracer, timeline,
// progress gauge) is attached. Checkpoint images exclude observer history —
// rolling it back would falsify the record of the run so far — so saving an
// observed machine is refused rather than silently dropping its sinks.
func (m *Machine) HasObservers() bool {
	return m.trc != nil || m.timeline != nil || m.progress != nil
}

// New builds a machine running the named model over the trace, which may
// use at most cfg.Cores threads: NewFromPlan over the trace's Compile.
func New(cfg config.Config, modelName string, tr *trace.Trace) (*Machine, error) {
	p, err := Compile(cfg, tr)
	if err != nil {
		return nil, err
	}
	return NewFromPlan(p, modelName)
}

// NewFromPlan builds a machine running the named model over the plan's
// trace, under the plan's config.
//
// Construction is two steps. build makes the parts whose shape the config
// alone fixes — engine, cache hierarchy, memory controllers, link, ledger
// and stat set — and reset does everything the plan and the run decide,
// the model included. Reset runs the same reset on a built machine, so a
// machine reused for another trace is in exactly the state New leaves.
func NewFromPlan(p *Plan, modelName string) (*Machine, error) {
	spec := model.Speculative(modelName)
	if spec && p.cfg.RTEntries <= 0 {
		return nil, fmt.Errorf("machine: %s needs a recovery table of positive size (RTEntries %d)", modelName, p.cfg.RTEntries)
	}
	m := build(p.cfg, spec)
	if err := m.reset(modelName, p); err != nil {
		return nil, err
	}
	return m, nil
}

// build makes the config-shaped graph of a machine: the engine, the
// hierarchy's caches, the controllers (with recovery tables and Bloom
// filters when spec), the link, the ledger and the stat set with the
// machine's counter handles. None of it is sized for a trace yet.
func build(cfg config.Config, spec bool) *Machine {
	eng := sim.NewEngine()
	st := stats.New()
	m := &Machine{
		Eng:    eng,
		Cfg:    cfg,
		Hier:   cache.NewHierarchy(cfg, 0),
		IL:     mem.NewInterleaver(cfg.MCs, cfg.InterleaveBytes),
		St:     st,
		Ledger: &Ledger{},
		MCs:    make([]*persist.MC, cfg.MCs),

		cWbbParked:           st.Counter(kWbbParked),
		cWbbFullStalls:       st.Counter(kWbbFullStalls),
		cLLCEvictionsDelayed: st.Counter(kLLCEvictionsDelayed),
		cPMLinesDropped:      st.Counter(kPMLinesDropped),
		cLockContended:       st.Counter(kLockContended),
		cCyclesBlocked:       st.Counter(kCyclesBlocked),
		cSampledCycles:       st.Counter(kCoreSampledCycles),
	}
	for i := range m.MCs {
		m.MCs[i] = persist.NewMC(i, eng, cfg, spec, st)
	}
	m.link = persist.NewLink(eng, cfg, m.MCs)
	return m
}

// Reset returns the machine to the state New builds for the same config
// and model over the plan's trace, whatever its last run left: finished,
// cut at a limit, or crashed. The plan must be compiled for the machine's
// config. Storage sized by the last plan is kept where it is large enough
// for p — cache slabs and set indexes, the directory table, the ledger's
// records, the engine's node slab, the controllers' buffers and NVM
// tables — and only what the last run used is cleared. The model is built
// anew, the observers are detached, and the stat set is emptied in place,
// so a Result of the last run must copy its Stats (stats.Set.Clone) before
// the machine runs again.
func (m *Machine) Reset(p *Plan) error {
	if p.cfg != m.Cfg {
		return fmt.Errorf("machine: plan compiled for another config")
	}
	return m.reset(m.Model.Name(), p)
}

// reset is the initialisation NewFromPlan and Reset share: everything the
// plan or the run decides, over a built machine.
func (m *Machine) reset(modelName string, p *Plan) error {
	m.Eng.Reset()
	if m.MCs[0].RT != nil {
		m.St.Reset(kPBOccupancy, kRTOccupancy)
	} else {
		m.St.Reset(kPBOccupancy)
	}
	m.Hier.Reset(p.lines, p.l1Sets, p.l2Sets, p.llcSets)
	m.Ledger.Reset(p.tokens, p.epochs)
	for i, mc := range m.MCs {
		mc.Reset(p.pmLines[i])
		mc.Register()
	}
	m.link.Reset()
	m.link.Register()
	mdl, err := model.New(modelName, model.Env{
		Eng:    m.Eng,
		Cfg:    m.Cfg,
		MCs:    m.MCs,
		IL:     m.IL,
		Dir:    m.Hier.Directory(),
		St:     m.St,
		Ledger: m.Ledger,
		Link:   m.link,
	})
	if err != nil {
		return err
	}

	threads := p.tr.NumThreads()
	cores, wbbs := resize(m.cores, threads), resize(m.wbbs, threads)
	for i := range cores {
		if cores[i] == nil {
			cores[i] = &coreState{}
		}
		*cores[i] = coreState{id: i}
		if wbbs[i] == nil {
			wbbs[i] = persist.NewWBB(16)
		} else {
			wbbs[i].Reset()
		}
	}
	locks := resize(m.locks, len(p.lockLines))
	clear(locks)
	pm := resize(m.pm, p.pmPages*pmPageWords)
	clear(pm)
	*m = Machine{
		Eng: m.Eng, Cfg: m.Cfg, Model: mdl, Hier: m.Hier, MCs: m.MCs, IL: m.IL, St: m.St, Ledger: m.Ledger,
		plan: p, cores: cores, locks: locks, pm: pm, wbbs: wbbs,

		cWbbParked: m.cWbbParked, cWbbFullStalls: m.cWbbFullStalls,
		cLLCEvictionsDelayed: m.cLLCEvictionsDelayed, cPMLinesDropped: m.cPMLinesDropped,
		cLockContended: m.cLockContended, cCyclesBlocked: m.cCyclesBlocked, cSampledCycles: m.cSampledCycles,

		link: m.link,
	}
	// The receiver table is in one fixed order: the controllers by ID and
	// the link (registered above), the model (by model.New), then the
	// machine. Each receiver derives its handle from its place, so none is
	// stored, and the table is identical between the machine that saved a
	// checkpoint image and the machine restoring it.
	if m.Eng.RegisterOp(m) != m.op() {
		panic("machine: registered other than right after its model")
	}
	return nil
}

// op is the machine's receiver handle: it registers right after the
// controllers, the link and the model (see reset).
func (m *Machine) op() sim.Op { return sim.Op(len(m.MCs) + 2) }

// resize returns s at length n, keeping its elements, those past its
// length included, in its storage when that holds n, else in a new array
// (allocated for a nil s too, as make would).
func resize[T any](s []T, n int) []T {
	if cap(s) < n || s == nil {
		grown := make([]T, n)
		copy(grown, s[:cap(s)])
		return grown
	}
	return s[:n]
}

// RunEvent dispatches the machine's typed events.
func (m *Machine) RunEvent(kind int, arg uint64) {
	switch kind {
	case mEvStep:
		m.step(m.cores[arg])
	case mEvPStore:
		c := m.cores[arg]
		m.Model.Store(c.id, c.pendLine, c.pendToken, m.Eng.Cont(m.op(), mEvStep, arg))
	case mEvOfence:
		m.Model.Ofence(int(arg), m.Eng.Cont(m.op(), mEvStep, arg))
	case mEvDfence:
		if m.trc != nil {
			m.trc.Begin(m.coreTracks[arg], "dfence")
		}
		m.Model.Dfence(int(arg), m.Eng.Cont(m.op(), mEvDfenceDone, arg))
	case mEvDfenceDone:
		if m.trc != nil {
			m.trc.End(m.coreTracks[arg])
		}
		m.step(m.cores[arg])
	case mEvRelease:
		c := m.cores[arg]
		m.Model.Release(c.id, c.relLine, m.Eng.Cont(m.op(), mEvReleaseDone, arg)) //asaplint:ignore alloccheck lock release is contention-only, cold next to the per-access path
	case mEvReleaseDone:
		m.finishRelease(m.cores[arg]) //asaplint:ignore alloccheck lock release is contention-only, cold next to the per-access path
	case mEvDrained:
		c := m.cores[arg]
		c.done = true
		c.finish = m.Eng.Now()
		m.finished++
	case mEvCrash:
		m.crash() //asaplint:ignore alloccheck the ADR power-fail sequence runs once per experiment, then the engine halts
	case mEvHandoff:
		c := m.cores[arg]
		m.finishAcquire(c, c.handoffLine)
	case mEvSample:
		m.sample() //asaplint:ignore alloccheck periodic sampler fires once per SampleInterval, amortized off the per-op path
	case mEvTimeline:
		m.timelineTick() //asaplint:ignore alloccheck interval-paced timeline row; off unless -timeline is set
	default:
		panic(fmt.Sprintf("machine: unknown event kind %d", kind))
	}
}

// WBB returns the core's write-back buffer (§V-F), which parks LLC
// evictions of lines whose writes are still queued in the persist buffer.
func (m *Machine) WBB(core int) *persist.WBB { return m.wbbs[core] }

// AttachTracer wires tr through every layer of the machine: core tracks
// (dfence and lock-wait spans), the model's persist path, the memory
// controllers with their WPQ/RT/XPBuffer/NVM, the write-back buffers, and
// an engine track counting event dispatches. Call before Run; tracing left
// unattached costs one nil comparison per hook site.
func (m *Machine) AttachTracer(tr obs.Tracer) {
	m.trc = tr
	m.coreTracks = make([]obs.TrackID, len(m.cores))
	for i := range m.cores {
		// Cores at even sort indices so each core's persist-path track
		// (2*i+1, allocated by the model) sits directly beneath it.
		m.coreTracks[i] = tr.Track(fmt.Sprintf("core%d", i), 2*i)
	}
	m.engTrack = tr.Track("engine", 1000)
	if t, ok := m.Model.(model.Traced); ok {
		t.AttachTracer(tr)
	}
	for _, mc := range m.MCs {
		mc.AttachTracer(tr)
	}
	for i, wbb := range m.wbbs {
		wbb.AttachTracer(tr, m.coreTracks[i])
	}
}

// AttachProgress wires a progress sink into the machine: the periodic
// sampler publishes a full snapshot — simulated clock, events dispatched,
// ops retired, persist-buffer and epoch-table occupancy, and the
// wall-clock simulation rate — through p every SampleInterval cycles, so
// concurrent readers (asapd's status endpoint and SSE stream) can watch
// an in-flight run advance without racing the single-goroutine machine.
// Call before Run; the cost is a seqlock publish per sample period (a few
// uncontended atomic stores), allocation-free, and nothing on the per-op
// path when unattached.
func (m *Machine) AttachProgress(p *obs.Progress) {
	m.progress = p
	m.progressET, _ = m.Model.(model.EpochTabled)
}

// publishProgress assembles and publishes one progress snapshot. Called
// only from the sampler (and once more at its first post-completion
// firing, so the final cycle count lands), and only when a sink is
// attached.
func (m *Machine) publishProgress() {
	var ops, pb uint64
	for _, c := range m.cores {
		ops += uint64(c.pc)
		pb += uint64(m.Model.PBOccupancy(c.id))
	}
	var et uint64
	if m.progressET != nil {
		for _, c := range m.cores {
			et += uint64(m.progressET.ETLen(c.id))
		}
	}
	m.progress.Publish(m.Eng.Now(), m.Eng.Dispatched(), ops, pb, et)
}

// EnableTimeline starts periodic occupancy sampling into a CSV timeline:
// one row every interval cycles (0 = obs.DefaultTimelineInterval) with
// per-core persist-buffer occupancy, per-core epoch-table size (models
// implementing model.EpochTabled), per-MC WPQ depth, and per-MC
// recovery-table occupancy. Call before Run; the returned timeline is
// filled during the run and serialized by the caller.
func (m *Machine) EnableTimeline(interval sim.Cycles) *obs.Timeline {
	_, m.tlETs = m.Model.(model.EpochTabled)
	var cols []string
	for i := range m.cores {
		cols = append(cols, fmt.Sprintf("pb%d", i))
	}
	if m.tlETs {
		for i := range m.cores {
			cols = append(cols, fmt.Sprintf("et%d", i))
		}
	}
	for j := range m.MCs {
		cols = append(cols, fmt.Sprintf("wpq%d", j))
	}
	for j, mc := range m.MCs {
		if mc.RT != nil {
			cols = append(cols, fmt.Sprintf("rt%d", j))
		}
	}
	m.timeline = obs.NewTimeline(interval, cols...)
	return m.timeline
}

// timelineTick appends one occupancy row and reschedules itself.
func (m *Machine) timelineTick() {
	if m.allDone() || m.Eng.Halted() {
		return
	}
	vals := m.tlVals[:0]
	for _, c := range m.cores {
		vals = append(vals, uint64(m.Model.PBOccupancy(c.id)))
	}
	if m.tlETs {
		et := m.Model.(model.EpochTabled)
		for _, c := range m.cores {
			vals = append(vals, uint64(et.ETLen(c.id)))
		}
	}
	for _, mc := range m.MCs {
		vals = append(vals, uint64(mc.WPQ.Len()))
	}
	for _, mc := range m.MCs {
		if mc.RT != nil {
			vals = append(vals, uint64(mc.RT.Occupancy()))
		}
	}
	m.tlVals = vals
	m.timeline.Append(m.Eng.Now(), vals...)
	m.Eng.AfterOp(m.timeline.Interval(), m.op(), mEvTimeline, 0)
}

// ScheduleCrash arranges a power failure at the given cycle: the ADR logic
// runs (WPQ drain plus undo-record write-back) and the simulation halts.
func (m *Machine) ScheduleCrash(at sim.Cycles) {
	m.crashAt = at
	m.Eng.ScheduleOp(at, m.op(), mEvCrash, 0)
}

// crash is the ADR power-fail sequence: drain every controller's WPQ, write
// back its undo records, and halt.
func (m *Machine) crash() {
	m.Crashed = true
	if m.trc != nil {
		m.trc.Instant(m.engTrack, "crash")
	}
	for _, mc := range m.MCs {
		mc.CrashFlush()
	}
	m.Eng.Halt()
}

// Result summarizes one run.
type Result struct {
	ModelName string
	Cycles    sim.Cycles // max per-core finish time (execution time)
	PerCore   []sim.Cycles
	Stats     *stats.Set
	PMWrites  uint64 // media writes across all controllers (Figure 9)
	PMReads   uint64
	RTMaxOcc  int // max recovery-table occupancy across MCs (Figure 12)
	WPQMaxOcc int
	Crashed   bool
}

// Start schedules the initial events — one step per core, the sampler, and
// the timeline tick if enabled — without dispatching anything. Run calls it
// implicitly; the checkpoint/crash drivers call it before Advance so a
// capture at cycle zero already contains the bootstrap events. Start is
// idempotent: the first call wins, later calls are no-ops.
func (m *Machine) Start() {
	if m.started {
		return
	}
	m.started = true
	for _, c := range m.cores {
		m.Eng.AfterOp(0, m.op(), mEvStep, uint64(c.id))
	}
	m.Eng.AfterOp(SampleInterval, m.op(), mEvSample, 0)
	if m.timeline != nil {
		m.Eng.AfterOp(m.timeline.Interval(), m.op(), mEvTimeline, 0)
	}
}

// Run starts all cores and dispatches events until every core drains (and
// the controllers go idle), a scheduled crash fires, or limit cycles pass
// (0 = no limit). It returns the run summary.
func (m *Machine) Run(limit sim.Cycles) Result {
	m.Start()
	m.Eng.Run(limit)
	return m.result()
}

// Advance runs the machine through cycle `to` and stops with the clock
// exactly there: every event at or before `to` has fired, none after. It is
// the incremental form of Run for checkpoint captures and forked crash
// campaigns. Calling it with a cycle already in the past is a no-op beyond
// clock normalization.
func (m *Machine) Advance(to sim.Cycles) {
	m.Start()
	m.Eng.RunUntil(to)
}

// CrashNow injects a power failure at cycle `at` synchronously: it advances
// through cycle at-1, moves the clock to `at` without dispatching the
// events scheduled there, and performs the ADR crash sequence (WPQ drain
// plus undo write-back on every controller, then halt). The machine ends in
// exactly the state a ScheduleCrash(at)+Run(0) pair produces — the
// scheduled crash event carried sequence number zero, so it too fired
// before any same-cycle work (pinned by TestCrashNowEquivalence) — but
// without dedicating a heap slot from construction, which is what lets a
// forked campaign decide the crash cycle after the prefix has already run.
func (m *Machine) CrashNow(at sim.Cycles) {
	if at == 0 {
		panic("machine: crash at cycle 0 precedes all work")
	}
	m.Advance(at - 1)
	m.Eng.JumpTo(at)
	m.crashAt = at
	m.crash()
}

func (m *Machine) result() Result {
	res := Result{
		ModelName: m.Model.Name(),
		Stats:     m.St,
		PerCore:   make([]sim.Cycles, len(m.cores)),
		Crashed:   m.Crashed,
	}
	for i, c := range m.cores {
		res.PerCore[i] = c.finish
		if c.finish > res.Cycles {
			res.Cycles = c.finish
		}
	}
	if !m.allDone() && !m.Crashed {
		// Ran into the limit; report the clock so callers notice.
		res.Cycles = m.Eng.Now()
	}
	for _, mc := range m.MCs {
		res.PMWrites += mc.NVM.Writes()
		res.PMReads += mc.NVM.Reads()
		if mc.RT != nil && mc.RT.MaxOccupancy() > res.RTMaxOcc {
			res.RTMaxOcc = mc.RT.MaxOccupancy()
		}
		if mc.WPQ.MaxOccupancy() > res.WPQMaxOcc {
			res.WPQMaxOcc = mc.WPQ.MaxOccupancy()
		}
	}
	return res
}

func (m *Machine) allDone() bool { return m.finished == len(m.cores) }

// step executes the next op of core c.
func (m *Machine) step(c *coreState) {
	if m.Eng.Halted() || c.done {
		return
	}
	ops := m.plan.tr.Threads[c.id]
	if c.pc >= len(ops) {
		m.Model.StartDrain(c.id, m.Eng.Cont(m.op(), mEvDrained, uint64(c.id)))
		return
	}
	op := ops[c.pc]
	c.pc++
	core := uint64(c.id)

	switch op.Kind {
	case trace.OpCompute:
		m.Eng.AfterOp(sim.Cycles(op.N), m.op(), mEvStep, core)

	case trace.OpLoad:
		line := mem.LineOf(op.Addr)
		res := m.access(c.id, line, false, false)
		m.Eng.AfterOp(res.Latency+m.Cfg.LoadCost, m.op(), mEvStep, core)

	case trace.OpStore:
		line := mem.LineOf(op.Addr)
		m.access(c.id, line, true, false)
		// Stores retire through the store buffer: the 8-way OoO cores of
		// Table II hide write-allocate miss latency, so the core is
		// charged only the L1 write port. The cache state (fills,
		// invalidations, evictions) still updates above, and the persist
		// path sees the write immediately.
		lat := m.Cfg.L1Hit + m.Cfg.StoreCost
		if op.Persistent {
			*m.plan.pmWord(m.pm, line) |= 1 << (line & 63) // the plan gave its page mark bits
			m.tokenSeq++
			m.Ledger.SetOrigin(m.tokenSeq, Origin{Thread: c.id, Seq: c.pstores})
			c.pstores++
			c.pendLine, c.pendToken = line, m.tokenSeq
			m.Eng.AfterOp(lat, m.op(), mEvPStore, core)
		} else {
			m.Eng.AfterOp(lat, m.op(), mEvStep, core)
		}

	case trace.OpOfence:
		m.Eng.AfterOp(m.Cfg.FenceCost, m.op(), mEvOfence, core)

	case trace.OpDfence:
		m.Eng.AfterOp(m.Cfg.FenceCost, m.op(), mEvDfence, core)

	case trace.OpAcquire:
		m.acquire(c, mem.LineOf(op.Addr))

	case trace.OpRelease:
		m.release(c, mem.LineOf(op.Addr))

	case trace.OpStrand:
		// Strand boundaries are free for models without strand support:
		// their epoch ordering is a conservative superset (§VII-E).
		if sm, ok := m.Model.(model.StrandModel); ok {
			sm.Strand(c.id)
		}
		m.Eng.AfterOp(1, m.op(), mEvStep, core)

	default:
		panic(fmt.Sprintf("machine: unknown op kind %v", op.Kind))
	}
}

// access runs one hierarchy access, reports conflicts to the model, and
// handles LLC evictions of persistent lines. The result aliases hierarchy
// scratch and is valid only until the next access.
func (m *Machine) access(core int, line mem.Line, write, acq bool) *cache.AccessResult {
	res := m.Hier.Access(core, line, write, acq, m.Model.CurrentTS(core))
	if res.Level == cache.LevelMem {
		// Demand fill from the media: account the PM read (Figure 9's
		// read traffic baseline against which undo reads add ~5%).
		m.MCs[m.IL.Home(line)].NVM.Read(line)
	}
	if res.Conflicted {
		m.Model.Conflict(core, &res.Conflict)
	}
	for i, ev := range res.LLCEvicted {
		if w := m.plan.pmWord(m.pm, ev); w == nil || *w&(1<<(ev&63)) == 0 {
			continue // volatile line: ordinary DRAM write-back, not modelled
		}
		// Persistent lines are dropped on LLC eviction (the persist path
		// owns durability, §V-A) — unless the line's writes are still
		// queued in the owner's persist buffer, in which case the
		// write-back buffer parks the eviction (§V-F), or the MC's Bloom
		// filter says a NACKed flush still holds the newest value. The
		// hierarchy captured the last writer during the eviction, so no
		// second directory probe is needed here.
		if w := res.LLCEvictedWriter[i]; w >= 0 && w < len(m.wbbs) &&
			m.Model.PBHasLine(w, ev) {
			if m.wbbs[w].Park(ev) {
				m.cWbbParked.Inc()
			} else {
				m.cWbbFullStalls.Inc()
			}
			continue
		}
		mc := m.MCs[m.IL.Home(ev)]
		if mc.Bloom != nil && mc.Bloom.MaybeContains(ev) {
			m.cLLCEvictionsDelayed.Inc()
		} else {
			m.cPMLinesDropped.Inc()
		}
	}
	return res
}

// acquire takes the spinlock at line, parking the core when held.
func (m *Machine) acquire(c *coreState, line mem.Line) {
	lk := m.lock(line)
	if lk.held {
		m.cLockContended.Inc()
		if m.trc != nil {
			m.trc.Begin(m.coreTracks[c.id], "lock wait")
			c.waitingLock = true
		}
		lk.waiters = append(lk.waiters, c.id) //asaplint:ignore alloccheck contention-only; bounded by core count, backing array reaches it once
		return                                // release hands off and resumes us
	}
	lk.held = true
	lk.holder = c.id
	m.finishAcquire(c, line)
}

// finishAcquire performs the lock-line read with acquire semantics and
// resumes the core.
func (m *Machine) finishAcquire(c *coreState, line mem.Line) {
	if c.waitingLock {
		if m.trc != nil {
			m.trc.End(m.coreTracks[c.id])
		}
		c.waitingLock = false
	}
	res := m.access(c.id, line, false, true)
	m.Model.Acquire(c.id, line)
	m.Eng.AfterOp(res.Latency+m.Cfg.LoadCost, m.op(), mEvStep, uint64(c.id))
}

// release runs the model's release work (epoch close, or flush+fence on the
// baseline), then performs the lock-line store, tags the release epoch in
// the directory, and hands the lock to the next waiter. The whole chain is
// staged in coreState fields and driven by typed events plus the
// mEvReleaseDone continuation, so lock-heavy workloads release without
// allocating.
func (m *Machine) release(c *coreState, line mem.Line) {
	c.relLine = line
	c.relTS = m.Model.CurrentTS(c.id)
	m.Eng.AfterOp(m.Cfg.FenceCost, m.op(), mEvRelease, uint64(c.id))
}

// finishRelease runs the model's release-done continuation: the lock-line
// store, directory release tag, and lock handoff.
func (m *Machine) finishRelease(c *coreState) {
	line := c.relLine
	res := m.access(c.id, line, true, false)
	m.Hier.Directory().MarkRelease(c.id, line, c.relTS)

	lk := m.lock(line)
	if !lk.held || lk.holder != c.id {
		panic("machine: release of a lock not held by this core")
	}
	if len(lk.waiters) > 0 {
		next := m.cores[lk.waiters[0]]
		lk.waiters = lk.waiters[1:]
		lk.holder = next.id
		next.handoffLine = line
		m.Eng.AfterOp(m.Cfg.RemoteXfer, m.op(), mEvHandoff, uint64(next.id))
	} else {
		lk.held = false
	}
	m.Eng.AfterOp(res.Latency+m.Cfg.StoreCost, m.op(), mEvStep, uint64(c.id))
}

// lock returns the state of the spinlock at line, found by binary search
// in the plan's lock lines. The search is written out because alloccheck
// cannot prove a call into the standard library allocation-free on this
// event path.
func (m *Machine) lock(line mem.Line) *lockState {
	lines := m.plan.lockLines
	lo, hi := 0, len(lines)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); lines[mid] < line {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(lines) || lines[lo] != line {
		panic("machine: lock line missing from the trace's lock table")
	}
	return &m.locks[lo]
}

// Check reports the first way the machine's run state does not fit its
// plan: a core out of place or past the end of its thread, PM mark bits of
// another length, a lock table of another size, a lock holder or waiter
// that is no core of the trace, a controller whose ID is not its index,
// or an NVM table not sized for its controller's PM lines. A machine decoded from a checkpoint image is
// checked before use; unchecked, these states panic in Run.
func (m *Machine) Check() error {
	p := m.plan
	for i, c := range m.cores {
		if c.id != i || c.pc < 0 || c.pc > len(p.tr.Threads[i]) {
			return fmt.Errorf("machine: core %d has id %d and op %d of %d", i, c.id, c.pc, len(p.tr.Threads[i]))
		}
	}
	if len(m.pm) != p.pmPages*pmPageWords {
		return fmt.Errorf("machine: %d words of PM mark bits, the plan's %d pages need %d", len(m.pm), p.pmPages, p.pmPages*pmPageWords)
	}
	if len(m.locks) != len(p.lockLines) {
		return fmt.Errorf("machine: %d lock states for the plan's %d lock lines", len(m.locks), len(p.lockLines))
	}
	threads := p.tr.NumThreads()
	for i := range m.locks {
		lk := &m.locks[i]
		if lk.holder < 0 || lk.holder >= threads {
			return fmt.Errorf("machine: lock %d held by core %d of %d", i, lk.holder, threads)
		}
		for _, w := range lk.waiters {
			if w < 0 || w >= threads {
				return fmt.Errorf("machine: lock %d awaited by core %d of %d", i, w, threads)
			}
		}
	}
	for i, mc := range m.MCs {
		if mc.ID != i {
			return fmt.Errorf("machine: controller %d has id %d, which must be its index: it is its receiver handle", i, mc.ID)
		}
		if err := mc.NVM.CheckSize(p.pmLines[i]); err != nil {
			return fmt.Errorf("machine: controller %d: %w", i, err)
		}
	}
	return nil
}

// sample periodically records persist-buffer occupancy (Figure 11), blocked
// flushing (Figure 3), and recovery-table occupancy, until all cores finish.
func (m *Machine) sample() {
	if m.progress != nil {
		m.publishProgress()
	}
	if m.allDone() || m.Eng.Halted() {
		return
	}
	for _, c := range m.cores {
		if c.done {
			continue
		}
		m.St.Observe(kPBOccupancy, uint64(m.Model.PBOccupancy(c.id)))
		if m.Model.PBBlocked(c.id) {
			m.cCyclesBlocked.Add(uint64(SampleInterval))
		}
		m.cSampledCycles.Add(uint64(SampleInterval))
		if m.trc != nil {
			m.trc.Counter(m.coreTracks[c.id], "pbOcc", int64(m.Model.PBOccupancy(c.id)))
		}
	}
	if m.trc != nil {
		m.trc.Counter(m.engTrack, "events", int64(m.Eng.Dispatched()))
	}
	for _, mc := range m.MCs {
		if mc.RT != nil {
			m.St.Observe(kRTOccupancy, uint64(mc.RT.Occupancy()))
		}
	}
	// Lazily release parked write-back-buffer evictions whose persist
	// buffer entries have since flushed.
	for i, wbb := range m.wbbs {
		if wbb.Len() > 0 {
			wbb.ReleaseFlushed(m.Model, i)
		}
	}
	m.Eng.AfterOp(SampleInterval, m.op(), mEvSample, 0)
}
