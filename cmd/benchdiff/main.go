// Command benchdiff converts `go test -bench` output into a JSON summary
// and compares two summaries, failing when any benchmark regresses beyond
// a threshold. CI uses it as the bench-regression gate:
//
//	go test -bench 'Fig8|Tab4|RunASAP' -benchtime 1x -run '^$' . > bench.txt
//	benchdiff -tojson bench.txt > BENCH_ci.json
//	benchdiff -baseline BENCH_baseline.json -current BENCH_ci.json -threshold 0.25
//
// With -count N the summary keeps each benchmark's minimum; -spread shows
// what that hides, printing every benchmark's sample count and the min,
// median and max of its ns/op:
//
//	go test -bench MachineOps -count 10 -run '^$' ./internal/machine > bench.txt
//	benchdiff -spread bench.txt
//
// The comparison is asymmetric by design: regressions fail — current
// slower than baseline by more than -threshold, allocating more than
// -alloc-threshold over baseline allocs/op, or using more than
// -bytes-threshold over baseline B/op (any allocation or byte fails a
// zero baseline) — while improvements and benchmarks present on
// only one side are reported but never fail, so adding or retiring
// benchmarks does not break the gate. Refresh the committed
// baseline with `make bench-baseline` (or from CI's uploaded BENCH_ci.json
// artifact when runner hardware shifts).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Summary is the JSON document: benchmark name (minus the -GOMAXPROCS
// suffix) to nanoseconds, bytes, and allocations per operation. The alloc
// and byte maps are present only when the bench run used -benchmem; older
// baselines without them still load, and the alloc gate skips benchmarks
// they lack.
type Summary struct {
	Benchmarks map[string]float64 `json:"benchmarks_ns_per_op"`
	Allocs     map[string]float64 `json:"benchmarks_allocs_per_op,omitempty"`
	Bytes      map[string]float64 `json:"benchmarks_bytes_per_op,omitempty"`
}

// benchLine matches one result line of `go test -bench` output, with the
// optional -benchmem columns, e.g.
//
//	BenchmarkFig8-8    1    123456789 ns/op    456 B/op    7 allocs/op
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// parse extracts benchmark results from go test -bench output. Repeated
// runs of one benchmark (-count > 1) keep the minimum of each metric, the
// conventional noise floor.
func parse(r io.Reader) (*Summary, error) {
	s := &Summary{Benchmarks: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchdiff: bad ns/op in %q: %w", sc.Text(), err)
		}
		if old, ok := s.Benchmarks[m[1]]; !ok || ns < old {
			s.Benchmarks[m[1]] = ns
		}
		if m[3] == "" {
			continue
		}
		bytes, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchdiff: bad B/op in %q: %w", sc.Text(), err)
		}
		allocs, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			return nil, fmt.Errorf("benchdiff: bad allocs/op in %q: %w", sc.Text(), err)
		}
		if s.Allocs == nil {
			s.Allocs = map[string]float64{}
			s.Bytes = map[string]float64{}
		}
		if old, ok := s.Bytes[m[1]]; !ok || bytes < old {
			s.Bytes[m[1]] = bytes
		}
		if old, ok := s.Allocs[m[1]]; !ok || allocs < old {
			s.Allocs[m[1]] = allocs
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchdiff: no benchmark result lines found")
	}
	return s, nil
}

// spread writes, for each benchmark in go test -bench output r in name
// order, its sample count and the min, median and max of its ns/op, and
// the max-min range relative to the median.
func spread(r io.Reader, w io.Writer) error {
	samples := map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return fmt.Errorf("benchdiff: bad ns/op in %q: %w", sc.Text(), err)
		}
		samples[m[1]] = append(samples[m[1]], ns)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("benchdiff: no benchmark result lines found")
	}
	names := make([]string, 0, len(samples))
	for n := range samples {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-32s %3s %12s %12s %12s %7s\n", "ns/op", "n", "min", "median", "max", "range")
	for _, n := range names {
		xs := samples[n]
		sort.Float64s(xs)
		med := xs[len(xs)/2]
		if len(xs)%2 == 0 {
			med = (xs[len(xs)/2-1] + med) / 2
		}
		lo, hi := xs[0], xs[len(xs)-1]
		fmt.Fprintf(w, "%-32s %3d %12.1f %12.1f %12.1f %6.1f%%\n", n, len(xs), lo, med, hi, (hi-lo)/med*100)
	}
	return nil
}

func load(path string) (*Summary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchdiff: %s: no benchmarks", path)
	}
	return &s, nil
}

// compare reports each benchmark's delta and returns the regressed names.
// Time regresses past threshold; allocations regress past allocThreshold,
// and a zero-alloc baseline fails on any allocation at all — a benchmark
// that earned 0 allocs/op must keep it. Bytes/op regress past
// bytesThreshold under the same zero-baseline rule. Benchmarks missing an
// alloc or byte figure on either side (pre-benchmem baselines) skip that
// gate.
func compare(base, cur *Summary, threshold, allocThreshold, bytesThreshold float64, w io.Writer) []string {
	names := make([]string, 0, len(base.Benchmarks))
	for n := range base.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	var regressed []string
	for _, n := range names {
		b := base.Benchmarks[n]
		c, ok := cur.Benchmarks[n]
		if !ok {
			fmt.Fprintf(w, "%-32s baseline %12.0f ns/op  (missing from current run, ignored)\n", n, b)
			continue
		}
		delta := (c - b) / b
		verdict := "ok"
		if delta > threshold {
			verdict = "REGRESSED"
		}
		if ab, aok := base.Allocs[n]; aok {
			if ac, aok := cur.Allocs[n]; aok && allocRegressed(ab, ac, allocThreshold) {
				verdict = "REGRESSED (allocs)"
				fmt.Fprintf(w, "%-32s baseline %12.0f  current %12.0f  allocs/op\n", n, ab, ac)
			}
		}
		if bb, bok := base.Bytes[n]; bok {
			if bc, bok := cur.Bytes[n]; bok && allocRegressed(bb, bc, bytesThreshold) {
				verdict = "REGRESSED (bytes)"
				fmt.Fprintf(w, "%-32s baseline %12.0f  current %12.0f  B/op\n", n, bb, bc)
			}
		}
		if verdict != "ok" {
			regressed = append(regressed, n)
		}
		fmt.Fprintf(w, "%-32s baseline %12.0f  current %12.0f  %+6.1f%%  %s\n",
			n, b, c, delta*100, verdict)
	}
	extra := make([]string, 0, len(cur.Benchmarks))
	for n := range cur.Benchmarks {
		if _, ok := base.Benchmarks[n]; !ok {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		fmt.Fprintf(w, "%-32s current %13.0f ns/op  (new, not in baseline)\n", n, cur.Benchmarks[n])
	}
	return regressed
}

// allocRegressed applies the alloc (and bytes) gate: any increase from a
// zero baseline fails, otherwise an increase beyond the fractional
// threshold.
func allocRegressed(base, cur, threshold float64) bool {
	if base == 0 {
		return cur > 0
	}
	return (cur-base)/base > threshold
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tojson    = fs.String("tojson", "", "parse `go test -bench` output from this file ('-' = stdin) and print a JSON summary")
		baseline  = fs.String("baseline", "", "baseline JSON summary")
		current   = fs.String("current", "", "current JSON summary to compare against the baseline")
		threshold = fs.Float64("threshold", 0.25, "fail when current exceeds baseline by more than this fraction")
		allocTh   = fs.Float64("alloc-threshold", 0.10, "fail when allocs/op exceeds baseline by more than this fraction (a 0 allocs/op baseline fails on any allocation)")
		bytesTh   = fs.Float64("bytes-threshold", 0.10, "fail when B/op exceeds baseline by more than this fraction (a 0 B/op baseline fails on any byte)")
		spreadIn  = fs.String("spread", "", "print each benchmark's sample count and min, median and max ns/op from `go test -bench` output in this file ('-' = stdin)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	// open opens a bench-output argument, '-' meaning stdin.
	open := func(path string) (io.ReadCloser, error) {
		if path == "-" {
			return io.NopCloser(os.Stdin), nil
		}
		return os.Open(path)
	}
	switch {
	case *spreadIn != "":
		in, err := open(*spreadIn)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer in.Close()
		if err := spread(in, stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0

	case *tojson != "":
		in, err := open(*tojson)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer in.Close()
		s, err := parse(in)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0

	case *baseline != "" && *current != "":
		b, err := load(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		c, err := load(*current)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if regressed := compare(b, c, *threshold, *allocTh, *bytesTh, stdout); len(regressed) > 0 {
			fmt.Fprintf(stderr, "benchdiff: %d benchmark(s) regressed (time >%g%%, allocs >%g%%, or bytes >%g%%): %v\n",
				len(regressed), *threshold*100, *allocTh*100, *bytesTh*100, regressed)
			return 1
		}
		fmt.Fprintf(stdout, "benchdiff: no benchmark regressed (time >%g%%, allocs >%g%%, bytes >%g%%)\n", *threshold*100, *allocTh*100, *bytesTh*100)
		return 0

	default:
		fmt.Fprintln(stderr, "usage: benchdiff -tojson BENCH.txt | benchdiff -spread BENCH.txt | benchdiff -baseline A.json -current B.json [-threshold 0.25]")
		return 2
	}
}
