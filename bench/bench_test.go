package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from the seed-1 runs")

// root is the repository root as seen from the package directory.
const root = ".."

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 { // n..1, so the helper must sort
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		p, want float64
	}{
		{20, 0.5, 10},
		{100, 0.5, 50},
		{100, 0.9, 90},
		{1000, 0.99, 990},
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g", c.n, c.p, got, err, c.want)
		}
	}
	// Fewer than 10 samples beyond the percentile.
	for _, c := range []struct {
		n int
		p float64
	}{{19, 0.5}, {99, 0.9}, {100, 0.99}, {0, 0.5}} {
		if got, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("percentile(1..%d, %g) = %g; want an error", c.n, c.p, got)
		}
	}
}

func TestQuartiles(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, m, q3 := quartiles(c.xs)
		if [3]float64{q1, m, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v; want %v", c.xs, q1, m, q3, c.want)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each run passes its own checks and emits every metric
// BENCHMARK.json lists with its unit, that the spans nest, and that
// another seed changes the inputs.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var listed, table []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		table = append(table, w.name)
	}
	if !reflect.DeepEqual(listed, table) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark runs %v", listed, table)
	}
	start := time.Now()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opt := options{seed: 1, seconds: time.Millisecond, tiny: true, root: root, tmp: t.TempDir()}
			run := func(opt options) (result, *tracer) {
				t.Helper()
				res, tr, err := runWorkload(w.name, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < minItems {
					t.Errorf("seed %d traced %v: %d of %d checks failed: %v", opt.seed, opt.traced, res.Failed, res.Attempted, res.Problems)
				}
				if _, err := spec.summaryLine(res); err != nil {
					t.Error(err)
				}
				return res, tr
			}
			run(opt)
			opt.traced = true
			res1, tr := run(opt)
			checkLayers(t, tr)
			opt.seed = 2
			res2, _ := run(opt)
			if simOf(res1) == simOf(res2) {
				t.Errorf("seeds 1 and 2 simulated identical inputs: %s", simOf(res1))
			}
		})
	}
	t.Logf("smoke runs took %v", time.Since(start))
}

// checkLayers checks that every layer's self time is non-negative and that
// the self times add up to no more than the wall time of each lane.
func checkLayers(t *testing.T, tr *tracer) {
	t.Helper()
	wall := time.Since(tr.origin)
	lanes := 1
	for _, s := range tr.spans {
		lanes = max(lanes, s.lane+1)
	}
	var sum time.Duration
	for name, l := range tr.layers() {
		if strings.Contains(name, "/") {
			continue // a name/detail slice of a layer counted under its name
		}
		if l.self < 0 {
			t.Errorf("layer %s: self time %v", name, l.self)
		}
		sum += l.self
	}
	if sum > wall*time.Duration(lanes) {
		t.Errorf("layer self times add up to %v, over %d lane(s) of %v wall time", sum, lanes, wall)
	}
}

// simOf renders a result's simulated statistics.
func simOf(res result) string {
	var b strings.Builder
	for _, m := range res.Metrics {
		if strings.HasPrefix(m.Name, "sim.") {
			fmt.Fprintf(&b, "%s=%v ", m.Name, m.Value)
		}
	}
	return b.String()
}

// TestPinnedDigests recomputes the seed-1 digests that
// testdata/digests.json pins at the benchmark's full scale. Run with
// -update to rewrite the file after a deliberate simulator change.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale seed-1 runs")
	}
	got := make(map[string]map[string]string)
	for _, w := range workloads {
		d, err := pinnedDigests(w.name, fullScale, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			got[w.name] = d
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath(root), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadDigests(root)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("seed-1 digests differ from %s; rerun with -update if the change is deliberate\ngot  %v\nwant %v", digestPath(root), got, want)
	}
}
