// Package harness regenerates every figure and table of the ASAP paper's
// evaluation (§VII). Each experiment returns a Table that the cmd/asapfig
// binary prints as text or CSV; EXPERIMENTS.md records paper-vs-measured.
//
// Experiments execute on a concurrent engine (engine.go): the independent
// (workload, model, config) simulations behind a table fan out across a
// bounded worker pool, deduplicated so overlapping experiments compute
// each simulation exactly once, while table assembly stays serial — so
// parallel output is byte-identical to serial output.
package harness

import (
	"fmt"
	"strings"
	"sync"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/runspec"
	"asap/internal/workload"
)

// Table is one rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Text renders the table for a terminal.
func (t *Table) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// Options scales experiments: Ops is structure-level operations per thread.
type Options struct {
	Ops  int
	Seed uint64
	// Parallel bounds concurrently executing simulations: 0 picks
	// GOMAXPROCS, 1 runs strictly serially. Results are identical at any
	// setting (every simulation is a pure function of its key).
	Parallel int
	// TraceDir, when non-empty, captures a Chrome trace-event JSON and an
	// occupancy-timeline CSV for every executed simulation into this
	// directory (<workload>_<model>_<N>t_<hash>.trace.json / .timeline.csv).
	// Artifacts are deterministic and written exactly once per simulation,
	// so capture is safe at any Parallel setting.
	TraceDir string
	// KeepGoing stops the first simulation error from cancelling the
	// whole engine. Batch callers (asapfig) want fail-fast: one broken
	// experiment aborts the run with its root cause. A long-running
	// service (asapd) wants the opposite — errors stay cached under
	// their own spec, and unrelated requests keep working.
	KeepGoing bool
	// Observe, when non-nil, is invoked on each leader simulation's
	// machine after construction and before Run — once per executed spec,
	// in run-list order on a serial engine — so callers can attach
	// observability sinks (asapd attaches an obs.Gauge for progress
	// reporting). It runs on worker goroutines — implementations must be
	// safe for concurrent calls — and must only observe: scheduling model
	// work from here would perturb the simulation. The machine is reused
	// for a later simulation once its run completes (Machine.Reset
	// detaches what the hook attached), so a hook must not retain it, or
	// read it, past that run.
	Observe func(runspec.RunSpec, *machine.Machine)
}

// DefaultOptions gives publication-scale runs (a few seconds per figure).
func DefaultOptions() Options { return Options{Ops: 400, Seed: 1} }

// QuickOptions gives fast runs for tests and benchmarks.
func QuickOptions() Options { return Options{Ops: 80, Seed: 1} }

// Harness runs experiments on a shared concurrent engine; traces and run
// results are cached and deduplicated across experiments.
type Harness struct {
	opts Options
	eng  *engine
}

// New builds a harness. A non-positive Ops selects DefaultOptions scale
// (and its seed, when none is given); every other option passes through.
func New(opts Options) *Harness {
	if opts.Ops <= 0 {
		opts.Ops = DefaultOptions().Ops
		if opts.Seed == 0 {
			opts.Seed = DefaultOptions().Seed
		}
	}
	return &Harness{opts: opts, eng: newEngine(opts)}
}

// Parallelism reports the engine's worker-pool size.
func (h *Harness) Parallelism() int { return h.eng.workers() }

// Perf reports the work the engine has executed so far: leader
// simulations run (cache hits excluded) and the simulated cycles they
// covered. cmd/asapfig divides the cycle count by wall time for its
// cycles/sec report.
func (h *Harness) Perf() (runs int64, simCycles uint64) {
	_, r := h.eng.execs()
	return r, h.eng.simCycles.Load()
}

// Workloads returns the Table III workload list (the bandwidth micro is
// excluded; it has its own experiment).
func Workloads() []string {
	var out []string
	for _, n := range workload.Names() {
		if n != "bandwidth" {
			out = append(out, n)
		}
	}
	return out
}

func (h *Harness) params(threads int) workload.Params {
	p := workload.Default()
	p.Threads = threads
	p.OpsPerThread = h.opts.Ops
	p.Seed = h.opts.Seed
	return p
}

func (h *Harness) cfgFor(threads int) config.Config {
	cfg := config.Default()
	if threads > cfg.Cores {
		cfg.Cores = threads
	}
	return cfg
}

// job builds the run spec for the standard configuration: `threads`
// threads on a machine with max(threads, 4) cores and 2 MCs.
func (h *Harness) job(wl, mdl string, threads int) runspec.RunSpec {
	return h.jobParams(h.cfgFor(threads), h.params(threads), wl, mdl)
}

// jobCfg is job with an explicit machine configuration (ablation sweeps).
func (h *Harness) jobCfg(cfg config.Config, wl, mdl string, threads int) runspec.RunSpec {
	return h.jobParams(cfg, h.params(threads), wl, mdl)
}

// jobParams is job with explicit machine configuration and workload
// parameters (bandwidth and strand traces).
func (h *Harness) jobParams(cfg config.Config, p workload.Params, wl, mdl string) runspec.RunSpec {
	s := runspec.New(wl, mdl, p, cfg)
	s.Normalize()
	return s
}

// Spec builds the RunSpec for the standard configuration: workload wl
// under the named model with `threads` threads on a machine with
// max(threads, 4) cores and 2 MCs. Callers that need full control over
// parameters or configuration build specs with runspec.New.
func (h *Harness) Spec(wl, mdl string, threads int) runspec.RunSpec {
	return h.job(wl, mdl, threads)
}

// RunSpec executes an explicit spec through the engine's singleflight
// cache: concurrent submissions of one spec simulate once, repeats are
// cache hits, and errors are cached per spec. This is asapd's entry
// point; the spec's Ops/Seed override the harness-level Options scale.
func (h *Harness) RunSpec(spec runspec.RunSpec) (machine.Result, error) {
	return h.eng.run(spec)
}

// Experiments lists the available experiment IDs in paper order.
func Experiments() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// experiments pairs each experiment ID with its table builder, in paper
// order: the figures and tables, then the ablations and extensions. A
// builder hands the engine every simulation it needs in one runAll call,
// then formats the results.
var experiments = []struct {
	id  string
	run func(*Harness) (*Table, error)
}{
	{"fig2", (*Harness).Fig2},
	{"fig3", (*Harness).Fig3},
	{"fig8", (*Harness).Fig8},
	{"fig9", (*Harness).Fig9},
	{"fig10", (*Harness).Fig10},
	{"fig11", (*Harness).Fig11},
	{"fig12", (*Harness).Fig12},
	{"fig13", (*Harness).Fig13},
	{"tab4", (*Harness).Tab4},
	{"tab5", (*Harness).Tab5},
	{"abl_nvmbw", (*Harness).AblNVMBW},
	{"abl_eager", (*Harness).AblEager},
	{"abl_pb", (*Harness).AblPB},
	{"abl_rt", (*Harness).AblRT},
	{"abl_xpbuf", (*Harness).AblXPBuf},
	{"abl_interleave", (*Harness).AblInterleave},
	{"abl_strands", (*Harness).AblStrands},
}

// Experiment runs one experiment by ID. Its simulations run in list order
// on a serial engine and fan out across the worker pool on a parallel one;
// the table is assembled from the results in list order either way, so
// output does not depend on the pool size.
func (h *Harness) Experiment(id string) (*Table, error) {
	for _, e := range experiments {
		if e.id == id {
			return e.run(h)
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", id, Experiments())
}

// Tables runs the given experiments — concurrently when the engine is
// parallel, with simulations shared between them computed exactly once —
// and returns the tables in request order. The first failure (in request
// order) is returned as an error wrapped with its experiment ID.
func (h *Harness) Tables(ids []string) ([]*Table, error) {
	out := make([]*Table, len(ids))
	errs := make([]error, len(ids))
	if h.Parallelism() > 1 {
		var wg sync.WaitGroup
		wg.Add(len(ids))
		for i, id := range ids {
			go func(i int, id string) {
				defer wg.Done()
				out[i], errs[i] = h.Experiment(id)
			}(i, id)
		}
		wg.Wait()
	} else {
		for i, id := range ids {
			out[i], errs[i] = h.Experiment(id)
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ids[i], err)
		}
	}
	return out, nil
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
