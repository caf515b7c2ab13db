// Command bench is this repository's end-to-end benchmark. It measures the
// host time and memory of five workloads over the paper's user paths and
// checks their outputs:
//
//   - fig8_cold: Figure 8 from a fresh harness, seed after seed (asapfig);
//   - long_typed, long_legacy: long single runs under the typed-event and
//     the closure-scheduled models (asapsim);
//   - crash_campaign: Theorem-2 crash-injection campaigns (asapcrash);
//   - asapd_mixed: a stream of cache-hit and cache-miss requests to asapd.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-out FILE]
//	bash bench/run.sh -compare A.json ... -- B.json ...
//
// With -workload it runs that workload in this process, prints every
// metric as a "workload metric value unit" line, and ends with one JSON
// line holding the metrics BENCHMARK.json lists: the end-to-end ones, or
// with -trace 1 the per-layer ones. Without -workload it runs every
// workload, each in a child process so each starts cold and has its own
// peak RSS; with -trace 1 it runs each untraced and then traced and
// reports the tracing overhead. -compare sets two groups of -out files
// side by side. bench/README.md describes the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "seed the workloads generate their inputs from")
	seconds := fs.Float64("seconds", 10, "length of each workload's timed loop in seconds (it runs at least 100 items)")
	traceMode := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
	out := fs.String("out", "", "write the full results as JSON to this file")
	compare := fs.Bool("compare", false, "compare two groups of -out files: -compare A.json ... -- B.json ...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(".")
	if err != nil {
		fmt.Fprintln(stderr, "bench: run from the repository root:", err)
		return 1
	}
	if *compare {
		return runCompare(spec, fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || (*traceMode != 0 && *traceMode != 1) || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	opt := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *traceMode == 1,
		root:    ".",
		tmp:     filepath.Join(".bench_build", "tmp"),
	}
	if *name != "" {
		return runOne(spec, *name, opt, *spans, *out, stdout, stderr)
	}
	return runAll(spec, opt, *spans, *out, stdout, stderr)
}

// runOne runs one workload in this process and prints its result, the
// JSON summary line last.
func runOne(spec *benchSpec, name string, opt options, spansPath, outPath string, stdout, stderr io.Writer) int {
	res, tr, err := runWorkload(name, opt)
	if err == nil && spansPath != "" && tr != nil {
		err = tr.writeChrome(spansPath)
	}
	if err == nil && outPath != "" {
		err = writeResults(outPath, []result{res})
	}
	var line []byte
	if err == nil {
		line, err = spec.summaryLine(res)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	for _, p := range res.Problems {
		fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", name, p)
	}
	if tr != nil {
		printLayers(stdout, name, tr)
	}
	printResult(stdout, res, res.Metrics)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runAll runs every workload in a child process of its own, untraced, and
// with opt.traced also traced, then prints the listed metrics of each.
func runAll(spec *benchSpec, opt options, spansPath, outPath string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err == nil {
		err = os.MkdirAll(opt.tmp, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	modes := []bool{false}
	if opt.traced {
		modes = append(modes, true)
	}
	var all []result
	untraced := make(map[string]result)
	status := 0
	for _, traced := range modes {
		for _, w := range workloads {
			res, err := runChild(exe, w.name, opt, traced, spansPath, stderr)
			var listed []metric
			if err == nil {
				listed, err = spec.listed(res)
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			n, _ := res.value("items")
			listed = append(listed, n)
			if traced {
				// Traced over untraced host time for the same work.
				base, _ := untraced[w.name].value("ops_per_s")
				tops, _ := res.value("ops_per_s")
				m := metric{"trace_overhead_frac", "fraction", ratio(base.Value, tops.Value) - 1}
				res.Metrics = append(res.Metrics, m)
				listed = append(listed, m)
			} else {
				untraced[w.name] = res
			}
			if !res.Correct {
				status = 1
			}
			all = append(all, res)
			printResult(stdout, res, listed)
		}
	}
	if outPath != "" {
		if err := writeResults(outPath, all); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// runChild runs one workload in a child process and reads back its result.
// The child's own report goes to stderr.
func runChild(exe, name string, opt options, traced bool, spansPath string, stderr io.Writer) (result, error) {
	f, err := os.CreateTemp(opt.tmp, "result-*.json")
	if err != nil {
		return result{}, err
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	mode := "0"
	if traced {
		mode = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatUint(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds.Seconds(), 'g', -1, 64), "-trace", mode, "-out", path}
	if traced && spansPath != "" {
		ext := filepath.Ext(spansPath)
		args = append(args, "-spans", strings.TrimSuffix(spansPath, ext)+"."+name+ext)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	rs, err := readResults(path)
	if err != nil {
		return result{}, err
	}
	if len(rs) != 1 {
		return result{}, fmt.Errorf("child wrote %d results", len(rs))
	}
	return rs[0], nil
}

// printResult prints metrics as "workload metric value unit" lines, with
// the check counts first.
func printResult(w io.Writer, res result, ms []metric) {
	fmt.Fprintf(w, "%s attempted %d count\n", res.Workload, res.Attempted)
	fmt.Fprintf(w, "%s failed %d count\n", res.Workload, res.Failed)
	for _, m := range ms {
		fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
}

// printLayers prints each layer's calls, busy time, self time and bytes,
// as comment lines.
func printLayers(w io.Writer, name string, tr *tracer) {
	l := tr.layers()
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "# %s %-36s %8s %12s %12s %10s\n", name, "layer", "calls", "busy_ms", "self_ms", "MB")
	for _, k := range keys {
		x := l[k]
		fmt.Fprintf(w, "# %s %-36s %8d %12.3f %12.3f %10.2f\n", name, k, x.calls,
			float64(x.busy)/float64(time.Millisecond), float64(x.self)/float64(time.Millisecond), float64(x.allocs)/1e6)
	}
}
