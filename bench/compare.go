package main

import (
	"fmt"
	"io"
	"slices"
)

// runCompare implements -compare: two groups of -out files, separated by
// "--". For each workload and listed metric it prints each side's sample
// count, median, quartiles and spread (quartile distance over median), the
// relative difference of the medians, and for end-to-end metrics whether
// the second side is worse than the first by more than BENCHMARK.json's
// bound, or too noisy to tell. It exits 1 unless every end-to-end metric
// of every workload is within its bound.
func runCompare(spec *benchSpec, args []string, stdout, stderr io.Writer) int {
	sep := slices.Index(args, "--")
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "usage: bench -compare A.json ... -- B.json ...")
		return 2
	}
	a, err := loadSide(args[:sep])
	var b samples
	if err == nil {
		b, err = loadSide(args[sep+1:])
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	fmt.Fprintf(stdout, "%-15s %-28s %3s %12s %12s %12s %7s %3s %12s %12s %12s %7s %8s %6s %s\n",
		"workload", "metric", "nA", "medianA", "q1A", "q3A", "sprdA", "nB", "medianB", "q1B", "q3B", "sprdB", "diff", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			list := spec.EndToEnd
			if traced {
				list = spec.PerLayer
			}
			for _, ms := range list {
				k := sampleKey{w.Name, traced, ms.Name}
				xa, xb := a[k], b[k]
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				a1, am, a3 := quartiles(xa)
				b1, bm, b3 := quartiles(xb)
				sa, sb := ratio(a3-a1, am), ratio(b3-b1, bm)
				diff := ratio(bm-am, am)
				bound, verdict := "-", "-"
				if ms.Bound != nil {
					bound = fmt.Sprintf("%.3f", *ms.Bound)
					worse := diff
					if ms.Better == "higher" {
						worse = -diff
					}
					switch {
					case worse > *ms.Bound:
						verdict = "WORSE"
					// The spread of set-up time is not judged: it is a median
					// of passes already, and only its shift is bounded.
					case ms.Name != "setup_s" && (sa > *ms.Bound || sb > *ms.Bound):
						verdict = "noisy"
					default:
						verdict = "ok"
					}
					if verdict != "ok" {
						status = 1
					}
				} else if slices.Equal(xa, xb) {
					verdict = "identical"
				}
				fmt.Fprintf(stdout, "%-15s %-28s %3d %12.6g %12.6g %12.6g %7.4f %3d %12.6g %12.6g %12.6g %7.4f %+8.4f %6s %s\n",
					w.Name, ms.Name, len(xa), am, a1, a3, sa, len(xb), bm, b1, b3, sb, diff, bound, verdict)
			}
		}
	}
	return status
}

type sampleKey struct {
	workload string
	traced   bool
	metric   string
}

// samples holds one side's values per workload, run kind and metric, in
// file order.
type samples map[sampleKey][]float64

func loadSide(paths []string) (samples, error) {
	out := make(samples)
	for _, p := range paths {
		rs, err := readResults(p)
		if err != nil {
			return nil, err
		}
		for _, res := range rs {
			for _, m := range res.Metrics {
				k := sampleKey{res.Workload, res.Traced, m.Name}
				out[k] = append(out[k], m.Value)
			}
		}
	}
	return out, nil
}
