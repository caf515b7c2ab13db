package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/stats"
	"asap/internal/trace"
)

// minItems is the fewest items a run measures, whatever its length: the
// p90 of fewer than 100 items has fewer than minBeyond samples beyond it.
const minItems = 100

// memSampleEvery is how often the loop samples the memory the Go runtime
// holds from the OS: everything it has mapped (heap, stacks, its own
// structures) less the heap it has returned. That is the process's
// resident memory without the binary and the calibration tables. Sampled
// this often, a 20 s loop takes 4000 samples, and their p99 follows the
// heap's high-water mark without resting on its single highest moment,
// which on a heap of a few MB moves with GC pacing by up to a fifth
// between runs.
const memSampleEvery = 5 * time.Millisecond

// options selects one run of one workload.
type options struct {
	seed    uint64
	seconds time.Duration // how long the timed loop runs (at least minItems items)
	traced  bool
	tiny    bool   // smoke-test scale: small inputs, one set-up pass, no pinned digests
	root    string // repository root: BENCHMARK.json and testdata/
	tmp     string // scratch directory for asapd stores
}

// scale sizes the workloads.
type scale struct {
	setupReps  int           // fewest set-up passes; setup_s is their median
	setupMin   time.Duration // set-up repeats until its passes take this long
	fig8Ops    int           // harness Options.Ops of each fig8_cold iteration
	longOps    int           // ops per thread of the long_* traces
	crashOps   int           // ops per thread of the crash_campaign trace
	injections int           // crash injections per campaign
	asapdOps   int           // ops per thread of every asapd spec
	perClient  int           // requests each asapd client sends per round
	pinned     bool          // check the seed-1 outputs against bench/testdata/digests.json
}

var (
	fullScale = scale{setupReps: 5, setupMin: 200 * time.Millisecond, fig8Ops: 80, longOps: 1000, crashOps: 400, injections: 40, asapdOps: 200, perClient: 100, pinned: true}
	tinyScale = scale{setupReps: 1, fig8Ops: 10, longOps: 40, crashOps: 40, injections: 4, asapdOps: 20, perClient: 20}
)

// benchWorkload is one of the benchmark's workloads.
type benchWorkload struct {
	name string
	run  func(*runner) error
}

var workloads = []benchWorkload{
	{"fig8_cold", runFig8},
	{"long_typed", func(r *runner) error { return runLong(r, "long_typed", typedModels) }},
	{"long_legacy", func(r *runner) error { return runLong(r, "long_legacy", legacyModels) }},
	{"crash_campaign", runCrash},
	{"asapd_mixed", runAsapd},
}

// runner carries one run of one workload: what the workload measured and
// what its checks found.
type runner struct {
	opt options
	sz  scale
	tr  *tracer // nil unless traced
	cal *calibrator

	setups    []sample // set-up passes
	items     []sample
	ops       float64 // work done in the loop: trace ops, injections or requests
	loopStart time.Time
	paused    time.Duration // loop time spent on calibration and set-up
	pauseMem  uint64        // bytes allocated then
	loop      time.Duration // loop wall time, pauses excluded
	allocs    uint64        // bytes allocated during the loop, pauses excluded

	heldMB           []float64 // memory the Go runtime holds, sampled through the loop
	memStop, memDone chan struct{}

	attempted, failed int
	problems          []string

	sim simStats // simulated statistics of the first round

	// asapd request counts by X-Asap-Cache disposition, hit latencies, and
	// the summed envelope timing blocks of the misses.
	hits, misses, inflight           int
	hitTimes                         []sample
	queueDur, simulateDur, encodeDur time.Duration
}

// sample is one timed piece of work: when it ended and how long it took.
type sample struct {
	end time.Time
	d   time.Duration
}

func timed(start, end time.Time) sample { return sample{end, end.Sub(start)} }

// simStats sums simulated statistics. They depend only on the inputs, so
// a seed reproduces them exactly and a simulator-only speed-up leaves them
// unchanged.
type simStats struct {
	cycles, traceOps, pmWrites, pmReads, events uint64
}

func (s *simStats) add(res machine.Result, m *machine.Machine) {
	s.cycles += res.Cycles
	s.traceOps += uint64(m.Trace().TotalOps())
	s.pmWrites += res.PMWrites
	s.pmReads += res.PMReads
	s.events += m.Eng.Dispatched()
}

// setup runs fn at least sz.setupReps times and until the passes have
// taken sz.setupMin, timing each pass: a set-up of a few milliseconds gets
// enough passes for a steady median. Each pass rebuilds everything the
// loop needs, and the loop uses what the last one built. The passes run
// back to back before the loop: repeated between rounds, they would find
// the memory they need returned to the OS by a loop with a small heap, and
// time the host's page-fault path, which swings with its load, instead.
func (r *runner) setup(fn func() error) error {
	var total time.Duration
	for len(r.setups) < r.sz.setupReps || total < r.sz.setupMin {
		if err := r.timeSetup(fn); err != nil {
			return err
		}
		total += r.setups[len(r.setups)-1].d
	}
	return nil
}

// timeSetup times and records one set-up pass, outside the loop's books.
// It starts from a collected heap, as a fresh process does, so whether a
// pass happens to pay for a collection of earlier garbage does not decide
// its time.
func (r *runner) timeSetup(fn func() error) (err error) {
	r.pause(func() {
		runtime.GC()
		start := time.Now()
		err = fn()
		r.setups = append(r.setups, timed(start, time.Now()))
	})
	return err
}

// pause runs fn without counting its time or bytes towards the loop's.
func (r *runner) pause(fn func()) {
	start, mem := time.Now(), heapAllocs()
	fn()
	r.paused += time.Since(start)
	r.pauseMem += heapAllocs() - mem
}

func (r *runner) startLoop() {
	r.paused, r.pauseMem = 0, 0
	r.memStop, r.memDone = make(chan struct{}), make(chan struct{})
	go r.sampleMem()
	r.allocs = heapAllocs()
	r.loopStart = time.Now()
}

// sampleMem samples the memory the Go runtime holds every memSampleEvery
// until memStop closes.
func (r *runner) sampleMem() {
	defer close(r.memDone)
	t := time.NewTicker(memSampleEvery)
	defer t.Stop()
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	for {
		metrics.Read(s)
		r.heldMB = append(r.heldMB, float64(s[0].Value.Uint64()-s[1].Value.Uint64())/1e6)
		select {
		case <-r.memStop:
			return
		case <-t.C:
		}
	}
}

// more reports whether the loop should start another round: until the
// run's time is up, and in any case until it has minItems items. Between
// rounds it times the calibration kernel now and then.
func (r *runner) more() bool {
	r.pause(r.cal.maybe)
	return time.Since(r.loopStart)-r.paused < r.opt.seconds || len(r.items) < minItems
}

func (r *runner) endLoop() {
	r.loop = time.Since(r.loopStart) - r.paused
	r.allocs = heapAllocs() - r.allocs - r.pauseMem
	r.stopMem()
}

// stopMem stops the memory sampler, if it runs, and waits for it.
func (r *runner) stopMem() {
	if r.memStop != nil {
		close(r.memStop)
		<-r.memDone
		r.memStop = nil
	}
}

func (r *runner) item(start, end time.Time) { r.items = append(r.items, timed(start, end)) }

// check records a check covering n items.
func (r *runner) check(ok bool, n int, format string, args ...any) {
	r.attempted += n
	if ok {
		return
	}
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// simulate builds and runs one machine, spanning construction and the
// event loop separately.
func (r *runner) simulate(parent int, cfg config.Config, mdl string, tr *trace.Trace) (machine.Result, *machine.Machine, error) {
	sp := r.tr.begin("machine_new", mdl, parent)
	m, err := machine.New(cfg, mdl, tr)
	r.tr.end(sp, 0)
	if err != nil {
		return machine.Result{}, nil, err
	}
	sp = r.tr.begin("machine_run", mdl, parent)
	res := m.Run(0)
	r.tr.end(sp, m.Eng.Dispatched())
	return res, m, nil
}

// digest identifies one run's simulated outcome: a SHA-256 over the
// workload, model, cycles, PM traffic and every stats counter.
func digest(wl, mdl string, cycles, pmWrites, pmReads uint64, counters []stats.CounterValue) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %s %d %d %d\n", wl, mdl, cycles, pmWrites, pmReads)
	for _, c := range counters {
		fmt.Fprintf(h, "%s %d\n", c.Name, c.Value)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func resultDigest(wl, mdl string, res machine.Result) string {
	return digest(wl, mdl, res.Cycles, res.PMWrites, res.PMReads, res.Stats.CounterValues())
}

// pinnedDigests computes the seed-1 digests a workload pins, untimed and
// untraced, or nil for a workload that pins none.
func pinnedDigests(name string, sz scale, tmp string) (map[string]string, error) {
	q := &runner{opt: options{tmp: tmp}, sz: sz}
	switch name {
	case "long_typed":
		return q.longDigests(typedModels)
	case "long_legacy":
		return q.longDigests(legacyModels)
	case "asapd_mixed":
		return q.asapdDigests()
	}
	return nil, nil
}

// checkPinned compares the workload's seed-1 digests with
// bench/testdata/digests.json.
func (r *runner) checkPinned(name string) {
	got, err := pinnedDigests(name, r.sz, r.opt.tmp)
	if err != nil {
		r.check(false, 1, "%s: pinned run: %v", name, err)
		return
	}
	want, err := loadDigests(r.opt.root)
	if err != nil {
		r.check(false, len(got), "%s: %v", name, err)
		return
	}
	for k, g := range got {
		r.check(want[name][k] == g, 1, "%s %s: seed-1 digest %.12s differs from the pinned %.12s (go test ./bench -update after a deliberate change)", name, k, g, want[name][k])
	}
	r.check(len(want[name]) == len(got), 1, "%s: %d pinned digests, %d computed", name, len(want[name]), len(got))
}

// runtimeSample reads the runtime's GC accounting.
type runtimeSample struct {
	gcCPU, userCPU float64 // seconds
	gcCycles       uint64
}

var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{gcCPU: s[0].Value.Float64(), userCPU: s[1].Value.Float64(), gcCycles: s[2].Value.Uint64()}
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSS is the process's resident-set high-water mark in MB.
func peakRSS() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
