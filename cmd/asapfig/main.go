// Command asapfig regenerates the figures and tables of the ASAP paper's
// evaluation section.
//
// Usage:
//
//	asapfig fig8                  # one experiment
//	asapfig all                   # everything
//	asapfig -csv fig13            # CSV output
//	asapfig -ops 400 fig10        # publication scale (default); -ops 80 is quick
//	asapfig -parallel 8 all       # 8 concurrent simulations (0 = GOMAXPROCS)
//	asapfig -csv -outdir out all  # one file per experiment instead of stdout
//	asapfig -list                 # print experiment IDs, one per line
//	asapfig -perf all             # wall time per experiment + cycles/sec (stderr)
//	asapfig -profile prof fig8    # write prof/cpu.pprof and prof/heap.pprof
//	asapfig -tracedir tr fig8     # Chrome trace + timeline CSV per simulation
//
// Independent simulations fan out across a worker pool; results are
// deterministic, so output is byte-identical at any -parallel setting.
// Trace capture (-tracedir) keeps that property: artifacts are written
// exactly once per simulation and their content does not depend on the
// pool size.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"asap/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, for testing. It returns
// the process exit code: 0 on success, 1 when an experiment fails, 2 on
// usage errors.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("asapfig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ops      = fs.Int("ops", 400, "structure-level operations per thread (scale)")
		seed     = fs.Uint64("seed", 1, "workload seed")
		csv      = fs.Bool("csv", false, "emit CSV instead of text tables")
		parallel = fs.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		outdir   = fs.String("outdir", "", "write one <experiment>.csv/.txt per experiment into this directory instead of stdout")
		list     = fs.Bool("list", false, "print the experiment IDs and exit")
		perf     = fs.Bool("perf", false, "report wall time per experiment and simulated cycles/sec to stderr")
		profile  = fs.String("profile", "", "write pprof profiles (cpu.pprof, heap.pprof) into this directory")
		tracedir = fs.String("tracedir", "", "capture a Chrome trace JSON + timeline CSV per simulation into this directory")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *list {
		for _, id := range harness.Experiments() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	args := fs.Args()
	if len(args) == 0 {
		fmt.Fprintf(stderr, "usage: asapfig [-ops N] [-csv] [-parallel N] [-outdir DIR] <%s|all>\n",
			strings.Join(harness.Experiments(), "|"))
		return 2
	}

	ids := args
	if len(args) == 1 && args[0] == "all" {
		ids = harness.Experiments()
	}

	stopProfile, err := startProfile(*profile)
	if err != nil {
		fmt.Fprintf(stderr, "asapfig: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(stderr, "asapfig: profile: %v\n", err)
		}
	}()

	h := harness.New(harness.Options{Ops: *ops, Seed: *seed, Parallel: *parallel, TraceDir: *tracedir})
	start := time.Now()
	var (
		tbs   []*harness.Table
		walls []time.Duration
	)
	if *perf {
		tbs, walls, err = timedTables(h, ids)
	} else {
		tbs, err = h.Tables(ids)
	}
	if err != nil {
		// Tables wraps the first failure with its experiment ID.
		fmt.Fprintf(stderr, "asapfig: %v\n", err)
		return 1
	}
	if *perf {
		reportPerf(stderr, h, ids, walls, time.Since(start))
	}

	if *outdir != "" {
		if err := writeDir(*outdir, ids, tbs, *csv); err != nil {
			fmt.Fprintf(stderr, "asapfig: %v\n", err)
			return 1
		}
		return 0
	}
	for _, tb := range tbs {
		if *csv {
			fmt.Fprint(stdout, tb.CSV())
		} else {
			fmt.Fprintln(stdout, tb.Text())
		}
	}
	return 0
}

// timedTables is Harness.Tables with a wall-clock measurement around each
// experiment. Timings overlap when the engine is parallel (experiments
// share the worker pool), so per-experiment walls sum to more than the
// total.
func timedTables(h *harness.Harness, ids []string) ([]*harness.Table, []time.Duration, error) {
	tbs := make([]*harness.Table, len(ids))
	walls := make([]time.Duration, len(ids))
	errs := make([]error, len(ids))
	runOne := func(i int, id string) {
		t0 := time.Now()
		tbs[i], errs[i] = h.Experiment(id)
		walls[i] = time.Since(t0)
	}
	if h.Parallelism() > 1 {
		var wg sync.WaitGroup
		wg.Add(len(ids))
		for i, id := range ids {
			go func(i int, id string) {
				defer wg.Done()
				runOne(i, id)
			}(i, id)
		}
		wg.Wait()
	} else {
		for i, id := range ids {
			runOne(i, id)
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", ids[i], err)
		}
	}
	return tbs, walls, nil
}

// reportPerf prints the per-experiment wall times and the engine's
// aggregate simulation throughput.
func reportPerf(w io.Writer, h *harness.Harness, ids []string, walls []time.Duration, total time.Duration) {
	for i, id := range ids {
		fmt.Fprintf(w, "perf: %-8s %8.3fs wall\n", id, walls[i].Seconds())
	}
	runs, cycles := h.Perf()
	rate := float64(cycles) / total.Seconds()
	fmt.Fprintf(w, "perf: total    %8.3fs wall, %d simulations, %d simulated cycles, %.1fM cycles/s\n",
		total.Seconds(), runs, cycles, rate/1e6)
}

// startProfile begins CPU profiling into dir/cpu.pprof and returns the
// function that stops it and snapshots dir/heap.pprof. With dir empty
// both are no-ops.
func startProfile(dir string) (stop func() error, err error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cf, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cf); err != nil {
		cf.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cf.Close(); err != nil {
			return err
		}
		hf, err := os.Create(filepath.Join(dir, "heap.pprof"))
		if err != nil {
			return err
		}
		defer hf.Close()
		runtime.GC() // capture live objects, not allocation noise
		return pprof.WriteHeapProfile(hf)
	}, nil
}

// writeDir writes one file per experiment: <dir>/<id>.csv or <id>.txt.
func writeDir(dir string, ids []string, tbs []*harness.Table, csv bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, tb := range tbs {
		name, body := ids[i]+".txt", tb.Text()
		if csv {
			name, body = ids[i]+".csv", tb.CSV()
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			return err
		}
	}
	return nil
}
