package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: asap
BenchmarkFig8-8                	       1	 123000000 ns/op	 4560000 B/op	   70000 allocs/op
BenchmarkTab4-8                	       1	 456000000 ns/op
BenchmarkRunASAPCCEH-8         	       2	  50000000 ns/op
BenchmarkRunASAPCCEH-8         	       2	  48000000 ns/op
PASS
ok  	asap	3.123s
`

func TestParse(t *testing.T) {
	s, err := parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"Fig8":        123000000,
		"Tab4":        456000000,
		"RunASAPCCEH": 48000000, // min of the two repeats
	}
	if len(s.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(s.Benchmarks), len(want), s.Benchmarks)
	}
	for n, ns := range want {
		if s.Benchmarks[n] != ns {
			t.Errorf("%s = %v, want %v", n, s.Benchmarks[n], ns)
		}
	}
	// Only Fig8's line carries -benchmem columns.
	if s.Allocs["Fig8"] != 70000 || s.Bytes["Fig8"] != 4560000 {
		t.Errorf("Fig8 memory columns = %v allocs, %v bytes; want 70000, 4560000",
			s.Allocs["Fig8"], s.Bytes["Fig8"])
	}
	if _, ok := s.Allocs["Tab4"]; ok {
		t.Errorf("Tab4 has no -benchmem columns but parsed allocs: %v", s.Allocs)
	}
}

func TestParseEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok asap 1s\n")); err == nil {
		t.Fatal("expected an error for output with no benchmarks")
	}
}

func writeSummary(t *testing.T, dir, name string, benchmarks map[string]float64) string {
	return writeSummaryFull(t, dir, name, Summary{Benchmarks: benchmarks})
}

func writeSummaryFull(t *testing.T, dir, name string, s Summary) string {
	t.Helper()
	path := filepath.Join(dir, name)
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareGate: within threshold passes, beyond threshold fails, and
// benchmarks on only one side never fail the gate.
func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	base := writeSummary(t, dir, "base.json", map[string]float64{
		"Fig8": 100, "Tab4": 200, "Retired": 300,
	})

	ok := writeSummary(t, dir, "ok.json", map[string]float64{
		"Fig8": 124, "Tab4": 150, "Brand_New": 1,
	})
	var out, errb strings.Builder
	if code := run([]string{"-baseline", base, "-current", ok, "-threshold", "0.25"}, &out, &errb); code != 0 {
		t.Fatalf("within-threshold run failed (code %d): %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "Brand_New") || !strings.Contains(out.String(), "Retired") {
		t.Errorf("one-sided benchmarks not reported:\n%s", out.String())
	}

	bad := writeSummary(t, dir, "bad.json", map[string]float64{
		"Fig8": 126, "Tab4": 200,
	})
	out.Reset()
	errb.Reset()
	if code := run([]string{"-baseline", base, "-current", bad, "-threshold", "0.25"}, &out, &errb); code != 1 {
		t.Fatalf("regression not caught (code %d): %s", code, out.String())
	}
	if !strings.Contains(errb.String(), "Fig8") {
		t.Errorf("regression message does not name the benchmark: %q", errb.String())
	}
}

// TestAllocGate: allocs/op regressions fail independently of time, a
// zero-alloc baseline fails on any allocation, and benchmarks without
// alloc figures (old baselines) skip the alloc gate.
func TestAllocGate(t *testing.T) {
	dir := t.TempDir()
	base := writeSummaryFull(t, dir, "base.json", Summary{
		Benchmarks: map[string]float64{"Fig8": 100, "Throughput": 20, "Legacy": 50},
		Allocs:     map[string]float64{"Fig8": 1000, "Throughput": 0},
	})

	// Time flat everywhere; Fig8 allocs creep 5% (within 10%), Throughput
	// stays at zero, Legacy has no alloc figure — all pass.
	ok := writeSummaryFull(t, dir, "ok.json", Summary{
		Benchmarks: map[string]float64{"Fig8": 100, "Throughput": 20, "Legacy": 500},
		Allocs:     map[string]float64{"Fig8": 1050, "Throughput": 0},
	})
	var out, errb strings.Builder
	if code := run([]string{"-baseline", base, "-current", ok, "-threshold", "20"}, &out, &errb); code != 0 {
		t.Fatalf("within-alloc-threshold run failed (code %d): %s%s", code, out.String(), errb.String())
	}

	// Fig8 allocs up 20% and Throughput gains its first allocation — both
	// fail even though every time delta is zero.
	bad := writeSummaryFull(t, dir, "bad.json", Summary{
		Benchmarks: map[string]float64{"Fig8": 100, "Throughput": 20, "Legacy": 50},
		Allocs:     map[string]float64{"Fig8": 1200, "Throughput": 1},
	})
	out.Reset()
	errb.Reset()
	if code := run([]string{"-baseline", base, "-current", bad, "-threshold", "20"}, &out, &errb); code != 1 {
		t.Fatalf("alloc regression not caught (code %d): %s", code, out.String())
	}
	for _, n := range []string{"Fig8", "Throughput"} {
		if !strings.Contains(errb.String(), n) {
			t.Errorf("alloc regression message does not name %s: %q", n, errb.String())
		}
	}
}

// TestBytesGate: B/op regressions fail independently of time and allocs,
// a zero-byte baseline fails on any bytes, and benchmarks without byte
// figures (old baselines) skip the bytes gate.
func TestBytesGate(t *testing.T) {
	dir := t.TempDir()
	base := writeSummaryFull(t, dir, "base.json", Summary{
		Benchmarks: map[string]float64{"Fig8": 100, "Throughput": 20, "Legacy": 50},
		Bytes:      map[string]float64{"Fig8": 4000, "Throughput": 0},
	})

	// Time flat everywhere; Fig8 bytes creep 5% (within 10%), Throughput
	// stays at zero, Legacy has no byte figure — all pass.
	ok := writeSummaryFull(t, dir, "ok.json", Summary{
		Benchmarks: map[string]float64{"Fig8": 100, "Throughput": 20, "Legacy": 500},
		Bytes:      map[string]float64{"Fig8": 4200, "Throughput": 0},
	})
	var out, errb strings.Builder
	if code := run([]string{"-baseline", base, "-current", ok, "-threshold", "20"}, &out, &errb); code != 0 {
		t.Fatalf("within-bytes-threshold run failed (code %d): %s%s", code, out.String(), errb.String())
	}

	// Fig8 bytes up 20% and Throughput gains its first byte — both fail
	// even though every time delta is zero and no alloc data exists.
	bad := writeSummaryFull(t, dir, "bad.json", Summary{
		Benchmarks: map[string]float64{"Fig8": 100, "Throughput": 20, "Legacy": 50},
		Bytes:      map[string]float64{"Fig8": 4800, "Throughput": 1},
	})
	out.Reset()
	errb.Reset()
	if code := run([]string{"-baseline", base, "-current", bad, "-threshold", "20"}, &out, &errb); code != 1 {
		t.Fatalf("bytes regression not caught (code %d): %s", code, out.String())
	}
	for _, n := range []string{"Fig8", "Throughput"} {
		if !strings.Contains(errb.String(), n) {
			t.Errorf("bytes regression message does not name %s: %q", n, errb.String())
		}
	}
	if !strings.Contains(out.String(), "REGRESSED (bytes)") {
		t.Errorf("report does not label the bytes verdict:\n%s", out.String())
	}
}

// TestToJSONRoundTrip: -tojson output loads back as a valid summary.
func TestToJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := run([]string{"-tojson", in}, &out, &errb); code != 0 {
		t.Fatalf("tojson failed: %s", errb.String())
	}
	var s Summary
	if err := json.Unmarshal([]byte(out.String()), &s); err != nil {
		t.Fatal(err)
	}
	if s.Benchmarks["Fig8"] != 123000000 {
		t.Errorf("round trip lost Fig8: %v", s.Benchmarks)
	}
}

// TestSpread: -spread keeps every repeat of a benchmark, and prints its
// sample count with the min, median (the mean of the middle two for an
// even count) and max of its ns/op, one line per benchmark in name order.
func TestSpread(t *testing.T) {
	in := sampleBench + `BenchmarkRunASAPCCEH-8         	       2	  60000000 ns/op
BenchmarkRunASAPCCEH-8         	       2	  49000000 ns/op
`
	want := []string{
		"Fig8 1 123000000.0 123000000.0 123000000.0 0.0%",
		"RunASAPCCEH 4 48000000.0 49500000.0 60000000.0 24.2%",
		"Tab4 1 456000000.0 456000000.0 456000000.0 0.0%",
	}
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := run([]string{"-spread", path}, &out, &errb); code != 0 {
		t.Fatalf("benchdiff -spread: exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1+len(want) {
		t.Fatalf("spread printed %d lines, want a header and %d rows:\n%s", len(lines), len(want), out.String())
	}
	for i, w := range want {
		if got := strings.Join(strings.Fields(lines[1+i]), " "); got != w {
			t.Errorf("row %d = %q, want %q", i, got, w)
		}
	}
	if err := spread(strings.NewReader("PASS\n"), &out); err == nil {
		t.Error("spread accepted output with no benchmarks")
	}
}

func TestUsageError(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("expected usage error, got %d", code)
	}
}
