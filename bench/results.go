package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one measured value.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// result is everything one run of one workload measured. -out files hold
// lists of them, and -compare reads them back.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Metrics   []metric `json:"metrics"`
}

func (res result) value(name string) (metric, bool) {
	for _, m := range res.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// runWorkload runs one workload in this process. The tracer is returned
// for traced runs (nil otherwise) so callers can write or inspect spans.
func runWorkload(name string, opt options) (result, *tracer, error) {
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return result{}, nil, fmt.Errorf("unknown workload %q", name)
	}
	cal, err := newCalibrator()
	if err != nil {
		return result{}, nil, err
	}
	defer cal.close() // an unmap failure changes nothing measured
	r := &runner{opt: opt, sz: fullScale, cal: cal}
	defer r.stopMem() // when the workload fails inside its loop
	if opt.tiny {
		r.sz = tinyScale
	}
	if opt.traced {
		r.tr = newTracer()
	}
	for i := 0; i < 3; i++ {
		r.cal.pass()
	}
	rt0 := readRuntime()
	if err := w.run(r); err != nil {
		return result{}, nil, err
	}
	rt1 := readRuntime()
	for i := 0; i < 3; i++ {
		r.cal.pass()
	}
	ms, err := r.metrics(rt0, rt1)
	if err != nil {
		return result{}, nil, err
	}
	return result{
		Workload:  name,
		Seed:      opt.seed,
		Traced:    opt.traced,
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Problems:  r.problems,
		Metrics:   ms,
	}, r.tr, nil
}

// metrics computes the end-to-end metrics, then, for a traced run, the
// per-layer ones. Both runs report both kinds where they can; which kind
// counts is decided by -trace when the result is printed. End-to-end host
// times are at the calibration kernel's nominal speed (see calib.go); the
// raw_ metrics are the same times as the clock read them.
func (r *runner) metrics(rt0, rt1 runtimeSample) ([]metric, error) {
	items, rawItems := r.scaled(r.items, time.Millisecond)
	setups, rawSetups := r.scaled(r.setups, time.Second)
	p50, p90, err := p50p90(items)
	if err != nil {
		return nil, err
	}
	rawP50, rawP90, _ := p50p90(rawItems) // as many samples as items
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	// A full run's 4000 samples put 40 beyond the p99; the smoke test's
	// short loops take fewer.
	memP99, _ := quantile(r.heldMB, 0.99)
	n := float64(len(r.items))
	rate, slow := r.ops/r.loop.Seconds(), r.cal.slowdown()
	out := []metric{
		{"setup_s", "s", median(setups)},
		{"ops_per_s", "1/s", rate * slow},
		{"item_ms_p50", "ms", p50},
		{"item_ms_p90", "ms", p90},
		{"alloc_mb_per_item", "MB", float64(r.allocs) / 1e6 / n},
		{"mem_mb_p99", "MB", memP99},
		{"items", "count", n},
		{"setups", "count", float64(len(r.setups))},
		{"host_slowdown", "ratio", slow},
		{"raw_setup_s", "s", median(rawSetups)},
		{"raw_ops_per_s", "1/s", rate},
		{"raw_item_ms_p50", "ms", rawP50},
		{"raw_item_ms_p90", "ms", rawP90},
		{"peak_rss_mb", "MB", rss},
	}
	hits, _ := r.scaled(r.hitTimes, time.Millisecond)
	if v, err := percentile(hits, 0.5); err == nil {
		out = append(out, metric{"hit_ms_p50", "ms", v})
	}
	if v, err := percentile(hits, 0.99); err == nil {
		out = append(out, metric{"hit_ms_p99", "ms", v})
	}
	if r.tr != nil {
		out = append(out, r.layerMetrics(rt0, rt1)...)
	}
	return out, nil
}

func p50p90(xs []float64) (p50, p90 float64, err error) {
	if p50, err = percentile(xs, 0.5); err == nil {
		p90, err = percentile(xs, 0.9)
	}
	return p50, p90, err
}

// scaled returns the samples' durations in units of unit at the
// calibration kernel's nominal speed, each by the passes around it, and as
// the clock read them.
func (r *runner) scaled(xs []sample, unit time.Duration) (nominal, raw []float64) {
	nominal, raw = make([]float64, len(xs)), make([]float64, len(xs))
	for i, x := range xs {
		raw[i] = float64(x.d) / float64(unit)
		nominal[i] = raw[i] / r.cal.slowdownAt(x.end)
	}
	return nominal, raw
}

// layerMetrics derives the per-layer metrics from the spans. Every run
// reports the same names: a layer the workload never enters reads 0.
func (r *runner) layerMetrics(rt0, rt1 runtimeSample) []metric {
	l := r.tr.layers()
	get := func(name string) layer {
		if x := l[name]; x != nil {
			return *x
		}
		return layer{}
	}
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	frac := func(a, b time.Duration) float64 { return ratio(float64(a), float64(b)) }

	// The simulator layers every workload enters.
	for _, name := range []string{"workload", "machine_new", "machine_run"} {
		x := get(name)
		add(name+".calls", "count", float64(x.calls))
		add(name+".ms_per_call", "ms", ratio(ms(x.busy), float64(x.calls)))
		add(name+".mb_per_call", "MB", ratio(float64(x.allocs)/1e6, float64(x.calls)))
	}
	run := get("machine_run")
	add("machine_run.events", "count", float64(run.events))
	add("machine_run.ns_per_event", "ns", ratio(float64(run.busy.Nanoseconds()), float64(run.events)))

	// fig8_cold: the figure's wall time outside the layers its replay
	// spends in, as a share of the figure.
	exp := get("harness.experiment")
	add("harness.self_frac", "fraction", frac(exp.busy-get("workload").busy-get("machine_new").busy-run.busy, exp.busy))

	// crash_campaign: shares of the replayed campaigns.
	camp, capture, fork := get("crash.replay"), get("checkpoint.capture"), get("checkpoint.fork")
	adv, check := get("machine_advance"), get("crash.check")
	add("checkpoint.capture_calls", "count", float64(capture.calls))
	add("checkpoint.fork_calls", "count", float64(fork.calls))
	add("checkpoint.frac", "fraction", frac(capture.busy+fork.busy, camp.busy))
	add("machine_advance.calls", "count", float64(adv.calls))
	add("machine_advance.events", "count", float64(adv.events))
	add("machine_advance.frac", "fraction", frac(adv.busy, camp.busy))
	add("crash.check_calls", "count", float64(check.calls))
	add("crash.check_frac", "fraction", frac(check.busy, camp.busy))
	add("crash.campaign_self_frac", "fraction", frac(camp.self, camp.busy))

	// asapd_mixed: shares of hit latency (the hit path re-run on each
	// hit's own bytes) and of miss latency (the envelope timing blocks).
	hit, parse, hash, sget := get("asapd.hit"), get("runspec.parse"), get("runspec.hash"), get("server.store_get")
	add("runspec.parse_frac", "fraction", frac(parse.busy, hit.busy))
	add("runspec.hash_frac", "fraction", frac(hash.busy, hit.busy))
	add("server.store_get_frac", "fraction", frac(sget.busy, hit.busy))
	add("server.hit_self_frac", "fraction", frac(hit.busy-parse.busy-hash.busy-sget.busy, hit.busy))
	miss := get("asapd.miss")
	add("server.queue_wait_frac", "fraction", frac(r.queueDur, miss.busy))
	add("server.simulate_frac", "fraction", frac(r.simulateDur, miss.busy))
	add("server.encode_frac", "fraction", frac(r.encodeDur, miss.busy))
	add("server.miss_self_frac", "fraction", frac(miss.busy-r.queueDur-r.simulateDur-r.encodeDur, miss.busy))
	add("server.hits", "count", float64(r.hits))
	add("server.misses", "count", float64(r.misses))
	add("server.inflight", "count", float64(r.inflight))

	gc, user := rt1.gcCPU-rt0.gcCPU, rt1.userCPU-rt0.userCPU
	add("runtime.gc_cpu_frac", "fraction", ratio(gc, gc+user))
	add("runtime.gc_cycles", "count", float64(rt1.gcCycles-rt0.gcCycles))

	add("sim.cycles", "count", float64(r.sim.cycles))
	add("sim.trace_ops", "count", float64(r.sim.traceOps))
	add("sim.pm_writes", "count", float64(r.sim.pmWrites))
	add("sim.pm_reads", "count", float64(r.sim.pmReads))
	add("sim.events", "count", float64(r.sim.events))

	// Host time per simulated event of each model the run simulated.
	var models []string
	for k := range l {
		if m, ok := strings.CutPrefix(k, "machine_run/"); ok {
			models = append(models, m)
		}
	}
	sort.Strings(models)
	for _, m := range models {
		x := get("machine_run/" + m)
		add("machine_run.ns_per_event."+m, "ns", ratio(float64(x.busy.Nanoseconds()), float64(x.events)))
	}
	return out
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better,omitempty"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// listed returns the metrics BENCHMARK.json names for the run's kind,
// end-to-end untraced and per-layer traced, in its order. A missing
// metric or a unit that disagrees with the listing is an error.
func (s *benchSpec) listed(res result) ([]metric, error) {
	list := s.EndToEnd
	if res.Traced {
		list = s.PerLayer
	}
	out := make([]metric, 0, len(list))
	for _, ms := range list {
		m, ok := res.value(ms.Name)
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", res.Workload, ms.Name)
		}
		if m.Unit != ms.Unit {
			return nil, fmt.Errorf("%s: metric %s measured in %s, listed in %s", res.Workload, ms.Name, m.Unit, ms.Unit)
		}
		out = append(out, m)
	}
	return out, nil
}

// summaryLine is the JSON object the benchmark prints last.
func (s *benchSpec) summaryLine(res result) ([]byte, error) {
	ms, err := s.listed(res)
	if err != nil {
		return nil, err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(ms))
	for _, m := range ms {
		vals[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, vals})
}

type resultFile struct {
	Results []result `json:"results"`
}

func writeResults(path string, rs []result) error {
	b, err := json.MarshalIndent(resultFile{rs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) ([]result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Results, nil
}

// digestPath is bench/testdata/digests.json: per workload, the seed-1
// digest of each run it pins.
func digestPath(root string) string { return filepath.Join(root, "bench", "testdata", "digests.json") }

func loadDigests(root string) (map[string]map[string]string, error) {
	b, err := os.ReadFile(digestPath(root))
	if err != nil {
		return nil, err
	}
	var d map[string]map[string]string
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", digestPath(root), err)
	}
	return d, nil
}
