package stats

import (
	"bytes"
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := []struct{ prefix, name, want string }{
		{"asap_", "pbOccupancy", "asap_pb_occupancy"},
		{"asap_", "llcEvictionsDelayed", "asap_llc_evictions_delayed"},
		{"asap_", "cycles", "asap_cycles"},
		{"", "wbbFullStalls", "wbb_full_stalls"},
	}
	for _, c := range cases {
		if got := PromName(c.prefix, c.name); got != c.want {
			t.Errorf("PromName(%q, %q) = %q, want %q", c.prefix, c.name, got, c.want)
		}
	}
}

func TestWriteCounterProm(t *testing.T) {
	var b bytes.Buffer
	WriteCounterProm(&b, "asap_x", "things counted\nwith a newline", 42)
	want := "# HELP asap_x_total things counted\\nwith a newline\n" +
		"# TYPE asap_x_total counter\n" +
		"asap_x_total 42\n"
	if b.String() != want {
		t.Fatalf("counter exposition:\n%q\nwant\n%q", b.String(), want)
	}
}

func TestWriteDistProm(t *testing.T) {
	var d Dist
	for v := uint64(1); v <= 100; v++ {
		d.Observe(v)
	}
	var b bytes.Buffer
	WriteDistProm(&b, "asap_occ", "occupancy", &d)
	out := b.String()
	for _, want := range []string{
		"# TYPE asap_occ summary\n",
		`asap_occ{quantile="0.5"} 50`,
		`asap_occ{quantile="0.95"} 95`,
		`asap_occ{quantile="0.99"} 99`,
		"asap_occ_sum 5050\n",
		"asap_occ_count 100\n",
		"# TYPE asap_occ_max gauge\n",
		"asap_occ_max 100\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dist exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteDistPromNil(t *testing.T) {
	var b bytes.Buffer
	WriteDistProm(&b, "asap_occ", "occupancy", nil)
	out := b.String()
	if strings.Contains(out, "quantile") {
		t.Fatalf("nil dist should emit no quantile samples:\n%s", out)
	}
	if !strings.Contains(out, "asap_occ_count 0\n") {
		t.Fatalf("nil dist should still expose the family with zero count:\n%s", out)
	}
}

// TestWritePromFullVocabulary: the exposition covers every registered
// name — touched or not — under the right family type, so the metric set
// a scraper discovers is a property of the binary.
func TestWritePromFullVocabulary(t *testing.T) {
	s := New()
	s.Counter(byName["zeta"]).Add(7)
	s.Observe(byName["occ"], 3)
	var b bytes.Buffer
	WriteProm(&b, "t_", s)
	out := b.String()

	if !strings.Contains(out, "t_zeta_total 7\n") {
		t.Error("touched counter missing")
	}
	if !strings.Contains(out, "t_alpha_total 0\n") {
		t.Error("untouched counter should expose as 0")
	}
	if !strings.Contains(out, "# TYPE t_occ summary\n") || !strings.Contains(out, "t_occ_count 1\n") {
		t.Error("touched dist missing")
	}
	if !strings.Contains(out, "t_lat_count 0\n") {
		t.Error("untouched dist should expose with zero count")
	}
	for _, reg := range Registered() {
		if !strings.Contains(out, PromName("t_", reg.Name)) {
			t.Errorf("registered name %q missing from exposition", reg.Name)
		}
	}
}

// TestWritePromByteStable: rendering an unchanged Set twice yields
// byte-identical output (the /metrics golden-scrape property).
func TestWritePromByteStable(t *testing.T) {
	s := New()
	s.Counter(byName["zeta"]).Add(7)
	s.Counter(byName["alpha"]).Add(2)
	s.Observe(byName["occ"], 3)
	s.Observe(byName["occ"], 9)
	var b1, b2 bytes.Buffer
	WriteProm(&b1, "asap_", s)
	WriteProm(&b2, "asap_", s)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two renders of one Set differ")
	}
}

// TestRegisterKindConflict: re-registering a name under the other kind
// panics, and Observe on a counter-kind name panics — the exposition
// depends on the kind table being truthful.
func TestRegisterKindConflict(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RegisterDist over an existing counter did not panic")
			}
		}()
		RegisterDist("a", "test counter a")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Observe on a counter-kind name did not panic")
			}
		}()
		New().Observe(byName["a"], 1)
	}()
}
