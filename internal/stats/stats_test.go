package stats

import (
	"strings"
	"testing"
)

// Register the ad-hoc names this file writes; production names live in the
// vocab files of the owning packages.
func init() {
	for _, n := range []string{"a", "b", "m", "x", "y", "zeta", "alpha"} {
		Register(n, "test counter "+n)
	}
	for _, n := range []string{"lat", "d", "occ"} {
		RegisterDist(n, "test counter "+n)
	}
}

// TestUnregisteredCounterPanics: a key Register never handed out cannot
// be written.
func TestUnregisteredCounterPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("write to unregistered counter did not panic")
		}
	}()
	s.Counter(Key(len(names) + 5)).Inc()
}

func TestRegisterConflictPanics(t *testing.T) {
	Register("dup", "one description")
	Register("dup", "one description") // same description: idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	Register("dup", "another description")
}

func TestDescription(t *testing.T) {
	if d := Description("a"); d != "test counter a" {
		t.Fatalf("Description(a) = %q", d)
	}
	if Description("never-registered") != "" {
		t.Fatal("unknown name should describe as empty")
	}
}

func TestDescribeOutput(t *testing.T) {
	s := New()
	s.Counter(byName["a"]).Add(3)
	s.Observe(byName["occ"], 5)
	out := s.Describe()
	if !strings.Contains(out, "# test counter a") {
		t.Fatalf("counter description missing from %q", out)
	}
	if !strings.Contains(out, "# test counter occ") {
		t.Fatalf("dist description missing from %q", out)
	}
}

func TestCounters(t *testing.T) {
	s := New()
	s.Counter(byName["a"]).Inc()
	s.Counter(byName["a"]).Add(4)
	if s.Get("a") != 5 {
		t.Fatalf("a = %d", s.Get("a"))
	}
	if s.Get("missing") != 0 {
		t.Fatal("missing counter not zero")
	}
}

func TestCounterHandles(t *testing.T) {
	kA := Register("a", "test counter a")
	s := New()
	c := s.Counter(kA)
	c.Inc()
	c.Add(4)
	if c.Value() != 5 || s.Get("a") != 5 {
		t.Fatalf("handle writes lost: Value=%d Get=%d", c.Value(), s.Get("a"))
	}
	// Two handles on one key share the same slot.
	s.Counter(kA).Inc()
	if c.Value() != 6 || s.Get("a") != 6 {
		t.Fatal("second handle's write invisible through the first")
	}
}

// TestCounterHandleSurvivesLateRegister pins the index-based handle design:
// registering a new name after a Set (and its handles) exist grows the
// dense storage without invalidating outstanding handles.
func TestCounterHandleSurvivesLateRegister(t *testing.T) {
	s := New()
	c := s.Counter(Register("a", "test counter a"))
	c.Inc()
	kLate := Register("late-registered-counter", "registered after the set was built")
	late := s.Counter(kLate)
	late.Add(2)
	c.Inc()
	if c.Value() != 2 || late.Value() != 2 {
		t.Fatalf("handles broke across growth: a=%d late=%d", c.Value(), late.Value())
	}
}

// TestUntouchedCountersUnlisted pins the print semantics the map gave us:
// resolving a handle does not materialize a printed entry, but any write —
// even Add(0) — does.
func TestUntouchedCountersUnlisted(t *testing.T) {
	s := New()
	s.Counter(Register("a", "test counter a")) // resolved, never written
	if n := s.Names(); len(n) != 0 {
		t.Fatalf("resolution alone listed %v", n)
	}
	s.Counter(byName["a"]).Add(0)
	if n := s.Names(); len(n) != 1 || n[0] != "a" {
		t.Fatalf("Add(0) should materialize the entry, got %v", n)
	}
}

func TestDistBasics(t *testing.T) {
	var d Dist
	for v := uint64(1); v <= 100; v++ {
		d.Observe(v)
	}
	if d.Count() != 100 {
		t.Fatalf("count = %d", d.Count())
	}
	if m := d.Mean(); m != 50.5 {
		t.Fatalf("mean = %v", m)
	}
	if d.Max() != 100 {
		t.Fatalf("max = %d", d.Max())
	}
	if p := d.Percentile(0.5); p != 50 {
		t.Fatalf("p50 = %d", p)
	}
	if p := d.Percentile(0.99); p != 99 {
		t.Fatalf("p99 = %d", p)
	}
}

func TestDistOverflowBucket(t *testing.T) {
	var d Dist
	d.Observe(10)
	d.Observe(1 << 20) // beyond bucket range
	if d.Max() != 1<<20 {
		t.Fatal("overflow sample lost from max")
	}
	if d.Mean() != float64(10+1<<20)/2 {
		t.Fatal("overflow sample lost from mean")
	}
	if p := d.Percentile(0.99); p != 1<<20 {
		t.Fatalf("p99 = %d, want the overflow max", p)
	}
}

func TestPercentileOverflowConsistency(t *testing.T) {
	// Two samples in the overflow bucket: per-value resolution is gone
	// there, so every percentile landing in it reports Max — not the
	// smaller overflow sample, which the buckets cannot distinguish.
	var d Dist
	d.Observe(10)
	d.Observe(5000)
	d.Observe(6000)
	if p := d.Percentile(0.3); p != 10 {
		t.Fatalf("p30 = %d, want exact-bucket 10", p)
	}
	if p := d.Percentile(0.5); p != 6000 {
		t.Fatalf("p50 = %d, want Max for an overflow-bucket target", p)
	}
}

func TestPercentileP100IsMax(t *testing.T) {
	cases := []struct {
		name    string
		samples []uint64
	}{
		{"exact", []uint64{1, 2, 3}},
		{"overflow", []uint64{1, 5000}},
		{"all-overflow", []uint64{4096, 9999}},
	}
	for _, c := range cases {
		var d Dist
		for _, v := range c.samples {
			d.Observe(v)
		}
		if got := d.Percentile(1); got != d.Max() {
			t.Errorf("%s: Percentile(1) = %d, Max = %d", c.name, got, d.Max())
		}
		if got := d.Percentile(1.5); got != d.Max() {
			t.Errorf("%s: Percentile(1.5) = %d, want clamp to Max", c.name, got)
		}
	}
}

func TestPercentileClampsNegative(t *testing.T) {
	var d Dist
	d.Observe(7)
	d.Observe(9)
	if p := d.Percentile(-0.5); p != 7 {
		t.Fatalf("Percentile(-0.5) = %d, want the minimum sample", p)
	}
}

func TestEmptyDist(t *testing.T) {
	var d Dist
	if d.Mean() != 0 || d.Percentile(0.99) != 0 || d.Max() != 0 {
		t.Fatal("empty dist should report zeros")
	}
}

func TestObserveAndDistLookup(t *testing.T) {
	s := New()
	s.Observe(byName["lat"], 7)
	s.Observe(byName["lat"], 9)
	d := s.Dist("lat")
	if d == nil || d.Count() != 2 {
		t.Fatal("dist not recorded")
	}
	if s.Dist("other") != nil {
		t.Fatal("unknown dist should be nil")
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.Counter(byName["x"]).Add(3)
	b.Counter(byName["x"]).Add(4)
	b.Counter(byName["y"]).Add(1)
	a.Observe(byName["d"], 10)
	b.Observe(byName["d"], 20)
	a.Merge(b)
	if a.Get("x") != 7 || a.Get("y") != 1 {
		t.Fatal("counter merge wrong")
	}
	if d := a.Dist("d"); d.Count() != 2 || d.Max() != 20 {
		t.Fatal("dist merge wrong")
	}
}

func TestStringFormat(t *testing.T) {
	s := New()
	s.Counter(byName["zeta"]).Add(1)
	s.Counter(byName["alpha"]).Add(2)
	s.Observe(byName["occ"], 5)
	out := s.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "zeta") {
		t.Fatalf("missing counters in %q", out)
	}
	if strings.Index(out, "alpha") > strings.Index(out, "zeta") {
		t.Fatal("counters not sorted")
	}
	if !strings.Contains(out, "occ") {
		t.Fatal("dist missing from String")
	}
}

func TestNames(t *testing.T) {
	s := New()
	s.Counter(byName["b"]).Inc()
	s.Counter(byName["a"]).Inc()
	n := s.Names()
	if len(n) != 2 || n[0] != "a" || n[1] != "b" {
		t.Fatalf("names = %v", n)
	}
}

// TestSnapshotOrderPinned pins the name-sorted order of the snapshot
// slices. Serialized envelopes and the Prometheus exposition both
// inherit their byte-determinism from this order, so it is contract, not
// implementation detail.
func TestSnapshotOrderPinned(t *testing.T) {
	s := New()
	for _, n := range []string{"zeta", "m", "alpha", "b", "x"} {
		s.Counter(byName[n]).Inc()
	}
	cs := s.CounterValues()
	for i := 1; i < len(cs); i++ {
		if cs[i-1].Name >= cs[i].Name {
			t.Fatalf("CounterValues out of order at %d: %q >= %q", i, cs[i-1].Name, cs[i].Name)
		}
	}
	if len(cs) != 5 || cs[0].Name != "alpha" || cs[4].Name != "zeta" {
		t.Fatalf("CounterValues = %+v", cs)
	}
	s.Observe(byName["occ"], 1)
	s.Observe(byName["lat"], 2)
	s.Observe(byName["d"], 3)
	ds := s.DistValues()
	if len(ds) != 3 || ds[0].Name != "d" || ds[1].Name != "lat" || ds[2].Name != "occ" {
		t.Fatalf("DistValues not name-sorted: %+v", ds)
	}
}

// TestRegistered: the registry vocabulary lists every registered name
// with its description, sorted, and is insensitive to Set state.
func TestRegistered(t *testing.T) {
	regs := Registered()
	if len(regs) == 0 {
		t.Fatal("empty registry")
	}
	found := false
	for i, r := range regs {
		if i > 0 && regs[i-1].Name >= r.Name {
			t.Fatalf("registry not sorted at %q", r.Name)
		}
		if r.Name == "zeta" {
			found = true
			if r.Desc != "test counter zeta" {
				t.Fatalf("zeta desc = %q", r.Desc)
			}
		}
	}
	if !found {
		t.Fatal("registered name missing from Registered()")
	}
}

// TestSnapshots: CounterValues/DistValues capture exactly the touched
// state, sorted by name, with the same numbers the accessors report.
func TestSnapshots(t *testing.T) {
	s := New()
	s.Counter(byName["zeta"]).Add(7)
	s.Counter(byName["alpha"]).Add(3)
	s.Observe(byName["occ"], 5)
	s.Observe(byName["occ"], 9)

	cs := s.CounterValues()
	if len(cs) != 2 || cs[0].Name != "alpha" || cs[0].Value != 3 || cs[1].Name != "zeta" || cs[1].Value != 7 {
		t.Fatalf("CounterValues = %+v", cs)
	}
	ds := s.DistValues()
	if len(ds) != 1 || ds[0].Name != "occ" || ds[0].Count != 2 || ds[0].Max != 9 || ds[0].Mean != 7 {
		t.Fatalf("DistValues = %+v", ds)
	}
	if ds[0].P99 != s.Dist("occ").Percentile(0.99) {
		t.Fatalf("P99 snapshot %d != live %d", ds[0].P99, s.Dist("occ").Percentile(0.99))
	}
}

// TestResetKeepsStorage: Reset zeroes counters and empties every
// distribution; a kept distribution reuses its buckets, zeroed, without
// allocating, and reads as absent until its next sample, like one never
// kept.
func TestResetKeepsStorage(t *testing.T) {
	s := New()
	lat, occ := byName["lat"], byName["occ"]
	s.Counter(byName["x"]).Add(5)
	s.Observe(lat, 3)
	s.Observe(occ, 4)
	s.Reset(lat)
	if s.Get("x") != 0 || len(s.Names()) != 0 || s.String() != "" {
		t.Fatalf("reset set still reports:\n%s", s)
	}
	if s.Dist("lat") != nil || s.Dist("occ") != nil {
		t.Fatal("a reset distribution reads as observed")
	}
	if s.dists[occ].buckets != nil {
		t.Fatal("a distribution Reset did not keep still holds its buckets")
	}
	if n := testing.AllocsPerRun(10, func() { s.Observe(lat, 9); s.Reset(lat) }); n != 0 {
		t.Fatalf("sampling a kept distribution allocates %v times per run", n)
	}
	s.Observe(lat, 9)
	if d := s.Dist("lat"); d.Count() != 1 || d.Percentile(0) != 9 || d.Max() != 9 {
		t.Fatalf("kept buckets carried counts over: count %d, p0 %d", d.Count(), d.Percentile(0))
	}
}

// TestCloneIsIndependent: a clone reports what its source did, shares no
// storage with it, keeps its buckets only up to the largest sample, and
// takes further samples and merges as a full distribution.
func TestCloneIsIndependent(t *testing.T) {
	s := New()
	lat := byName["lat"]
	s.Counter(byName["x"]).Add(2)
	for _, v := range []uint64{1, 5, 5, 9, 5000} {
		s.Observe(lat, v)
	}
	c := s.Clone()
	if c.String() != s.String() {
		t.Fatalf("clone reports\n%s\nsource\n%s", c, s)
	}
	if n := len(c.dists[lat].buckets); n != distBuckets {
		t.Fatalf("a clone with an overflow sample keeps %d buckets, want %d", n, distBuckets)
	}
	s.Reset()
	s.Observe(lat, 7)
	if c.Get("x") != 2 || c.Dist("lat").Count() != 5 {
		t.Fatal("the clone changed with its source")
	}

	s.Reset()
	s.Observe(lat, 3)
	s.Observe(lat, 1)
	c = s.Clone()
	if n := len(c.dists[lat].buckets); n != 4 {
		t.Fatalf("a clone whose largest sample is 3 keeps %d buckets, want 4", n)
	}
	if d := c.Dist("lat"); d.Percentile(0.5) != 1 || d.Percentile(0.99) != 3 {
		t.Fatalf("clone percentiles p50 %d p99 %d, want 1 and 3", d.Percentile(0.5), d.Percentile(0.99))
	}
	c.Observe(lat, 100)
	c.Merge(s)
	if d := c.Dist("lat"); d.Count() != 5 || d.Percentile(0.4) != 1 || d.Percentile(0.8) != 3 || d.Max() != 100 {
		t.Fatalf("clone after a sample and a merge: count %d p40 %d p80 %d max %d", d.Count(), d.Percentile(0.4), d.Percentile(0.8), d.Max())
	}
}
