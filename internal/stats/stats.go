// Package stats collects simulation statistics. The counter names mirror the
// gem5 stats listed in Table VI of the ASAP paper so that EXPERIMENTS.md can
// speak the paper's vocabulary:
//
//	cyclesBlocked        cycles for which a persist buffer is unable to flush
//	cyclesStalled        CPU stall cycles because of a full persist buffer
//	dfenceStalled        CPU stall cycles because of dfence
//	entriesInserted      writes enqueued in the persist buffers
//	interTEpochConflict  cross-thread dependencies detected
//	totSpecWrites        early (speculative) flushes issued
//	totalUndo            undo records created
package stats

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Key is the dense index assigned to a registered stat name. Keys are handed
// out by Register in registration order and are valid for every Set; hot
// call sites resolve a Key to a Counter handle once at construction and pay
// a slice index per increment instead of a string hash.
type Key int32

// The global registry: name → key plus the parallel name/description/kind
// tables a Key indexes. Written only from package init functions (the
// vocabulary files in machine, model, persist, and server) and read
// afterwards, so no locking is needed even under the parallel harness.
var (
	byName = make(map[string]Key)
	names  []string
	descs  []string
	kinds  []Kind
)

// Kind distinguishes the two stat families the registry holds. The
// Prometheus exposition (expose.go) renders counters and distributions
// differently, so registration records which one a name is.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count (rendered with a
	// _total suffix).
	KindCounter Kind = iota
	// KindDist is a sampled distribution (rendered as a summary with
	// quantiles from Dist.Percentile).
	KindDist
)

// String names the kind for the /v1/stats registry listing.
func (k Kind) String() string {
	if k == KindDist {
		return "dist"
	}
	return "counter"
}

// Register records a one-line description for stat name and returns its Key.
// Every counter or distribution is written through the Key Register hands
// out, which keeps the Table VI vocabulary closed — a stat cannot be
// written under a name nobody registered, so a typo cannot silently split
// a counter in two. Call Register
// from the owning package's init. Re-registering a name with the same
// description is a no-op returning the original Key; conflicting
// descriptions panic.
func Register(name, desc string) Key { return register(name, desc, KindCounter) }

// RegisterDist is Register for distribution stats (written with
// Set.Observe). The kind only affects exposition: distributions render as
// Prometheus summaries instead of counters.
func RegisterDist(name, desc string) Key { return register(name, desc, KindDist) }

func register(name, desc string, kind Kind) Key {
	if k, ok := byName[name]; ok {
		if descs[k] != desc {
			panic(fmt.Sprintf("stats: %q registered twice with different descriptions (%q vs %q)", name, descs[k], desc))
		}
		if kinds[k] != kind {
			panic(fmt.Sprintf("stats: %q registered twice with different kinds (%v vs %v)", name, kinds[k], kind))
		}
		return k
	}
	k := Key(len(names))
	byName[name] = k
	names = append(names, name)
	descs = append(descs, desc)
	kinds = append(kinds, kind)
	return k
}

// Registration is one entry of the stats registry: a counter or
// distribution name, its one-line description, and its kind. asapd's
// /v1/stats endpoint serves the full vocabulary through it.
type Registration struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
	Kind string `json:"kind"`
}

// Registered lists the complete registered vocabulary, sorted by name.
// The registry is immutable after package init, so the result reflects
// every stat any run in this process can touch.
func Registered() []Registration {
	out := make([]Registration, len(names))
	for k, n := range names {
		out[k] = Registration{Name: n, Desc: descs[k], Kind: kinds[k].String()}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Description returns the registered description for name, or "" if the
// name was never registered.
func Description(name string) string {
	if k, ok := byName[name]; ok {
		return descs[k]
	}
	return ""
}

// Set is a named collection of counters and distributions. The zero value is
// not usable; call New.
//
// Counters live in a dense slice indexed by Key; touched tracks which
// entries have ever been written so that printing and Names report exactly
// the counters a run touched (a write of zero still counts as touched).
// Distributions live by value in a Key-indexed slice too; each one's
// bucket array is allocated on its first sample (or kept by Reset), so a
// never-observed distribution costs a few words and reads as absent.
type Set struct {
	counters []uint64
	touched  []bool
	dists    []Dist
}

// New returns an empty stat set sized for every name registered so far;
// names registered later (tests) grow the set lazily on first use.
func New() *Set {
	return &Set{
		counters: make([]uint64, len(names)),
		touched:  make([]bool, len(names)),
		dists:    make([]Dist, len(names)),
	}
}

// Reset zeroes every counter and empties every distribution, keeping the
// set's storage. The distributions named in keep hold on to their bucket
// storage, so a run that samples them again allocates none; every other
// distribution drops its own. Either way an empty distribution reads as
// absent, as in a new set.
func (s *Set) Reset(keep ...Key) {
	for _, k := range keep {
		s.ensure(k)
	}
	clear(s.counters)
	clear(s.touched)
	for k := range s.dists {
		b := s.dists[k].buckets
		s.dists[k] = Dist{}
		if slices.Contains(keep, Key(k)) {
			// Empty but not nil, whether storage was kept or is still to
			// come, so a checkpoint image reads the same either way.
			if b == nil {
				b = []uint64{}
			}
			s.dists[k].buckets = b[:0]
		}
	}
}

// Clone returns a copy of s that shares no storage with it, for a result
// that outlives the run that filled s. A cloned distribution keeps its
// buckets only up to its largest sample (it gets the rest back if it takes
// another sample).
func (s *Set) Clone() *Set {
	c := &Set{counters: slices.Clone(s.counters), touched: slices.Clone(s.touched), dists: make([]Dist, len(s.dists))}
	for k := range s.dists {
		if d := &s.dists[k]; d.observed() {
			c.dists[k] = *d
			c.dists[k].buckets = slices.Clone(d.buckets[:min(d.max+1, uint64(len(d.buckets)))])
		}
	}
	return c
}

// ensure grows the dense storage to cover k (only needed when a name was
// registered after this Set was built).
func (s *Set) ensure(k Key) {
	if int(k) >= len(s.counters) {
		c := make([]uint64, len(names))
		copy(c, s.counters)
		s.counters = c
		t := make([]bool, len(names))
		copy(t, s.touched)
		s.touched = t
		d := make([]Dist, len(names))
		copy(d, s.dists)
		s.dists = d
	}
}

// Counter is a pre-resolved handle on one counter of one Set. Handles are
// cheap value types: resolve them once at construction (m.kFoo =
// st.Counter(kFoo)) and call Inc/Add on the hot path — no string hashing,
// no map probe. A handle stays valid when later Register calls grow the
// Set, because it holds the Key, not a slot pointer.
type Counter struct {
	s *Set
	k Key
}

// Counter resolves Key k against the set. Resolving does not mark the
// counter touched; only a write does. A key Register never handed out
// panics, which keeps the vocabulary closed.
func (s *Set) Counter(k Key) Counter {
	if k < 0 || int(k) >= len(names) {
		panic(fmt.Sprintf("stats: counter key %d used without stats.Register", k))
	}
	s.ensure(k)
	return Counter{s: s, k: k}
}

// Inc increments the counter by one.
func (c Counter) Inc() {
	c.s.counters[c.k]++
	c.s.touched[c.k] = true
}

// Add increments the counter by delta.
func (c Counter) Add(delta uint64) {
	c.s.counters[c.k] += delta
	c.s.touched[c.k] = true
}

// Value reads the counter.
func (c Counter) Value() uint64 { return c.s.counters[c.k] }

// Get returns the value of counter name (zero if never touched or never
// registered).
func (s *Set) Get(name string) uint64 {
	k, ok := byName[name]
	if !ok || int(k) >= len(s.counters) {
		return 0
	}
	return s.counters[k]
}

// Observe records sample v in the distribution registered as k.
func (s *Set) Observe(k Key, v uint64) {
	if kinds[k] != KindDist {
		panic(fmt.Sprintf("stats: Observe on %q, which was registered as a counter (use RegisterDist)", names[k]))
	}
	s.ensure(k)
	s.dists[k].Observe(v)
}

// Dist returns the distribution named name, or nil if never observed. The
// pointer is a borrow, valid until a name registered after New is first
// used on the set.
func (s *Set) Dist(name string) *Dist {
	k, ok := byName[name]
	if !ok || int(k) >= len(s.dists) || !s.dists[k].observed() {
		return nil
	}
	return &s.dists[k]
}

// Names returns the names of all touched counters in sorted order.
func (s *Set) Names() []string {
	out := make([]string, 0, len(s.counters))
	for k, t := range s.touched {
		if t {
			out = append(out, names[k])
		}
	}
	sort.Strings(out)
	return out
}

// Merge adds every counter and distribution from other into s.
func (s *Set) Merge(other *Set) {
	for k, t := range other.touched {
		if !t {
			continue
		}
		s.ensure(Key(k))
		s.counters[k] += other.counters[k]
		s.touched[k] = true
	}
	for k := range other.dists {
		if d := &other.dists[k]; d.observed() {
			s.ensure(Key(k))
			s.dists[k].Merge(d)
		}
	}
}

// CounterValue is one touched counter in a serializable snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// CounterValues snapshots every touched counter, sorted by name — the
// deterministic order makes serialized results byte-identical across
// identical runs (asapd's store depends on that).
func (s *Set) CounterValues() []CounterValue {
	names := s.Names()
	out := make([]CounterValue, len(names))
	for i, n := range names {
		out[i] = CounterValue{Name: n, Value: s.Get(n)}
	}
	return out
}

// DistValue is one observed distribution in a serializable snapshot:
// the same summary String renders (mean, p99, max, count).
type DistValue struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P99   uint64  `json:"p99"`
	Max   uint64  `json:"max"`
}

// DistValues snapshots every observed distribution, sorted by name.
func (s *Set) DistValues() []DistValue {
	names := s.distNames()
	out := make([]DistValue, len(names))
	for i, n := range names {
		d := s.Dist(n)
		out[i] = DistValue{Name: n, Count: d.Count(), Mean: d.Mean(), P99: d.Percentile(0.99), Max: d.Max()}
	}
	return out
}

// String renders the set as "name value" lines, sorted by name, in the style
// of a gem5 stats.txt file.
func (s *Set) String() string {
	var b strings.Builder
	for _, n := range s.Names() {
		fmt.Fprintf(&b, "%-28s %d\n", n, s.Get(n))
	}
	for _, n := range s.distNames() {
		d := s.Dist(n)
		fmt.Fprintf(&b, "%-28s avg=%.2f p99=%d max=%d n=%d\n", n, d.Mean(), d.Percentile(0.99), d.Max(), d.Count())
	}
	return b.String()
}

// Describe renders the set like String but with the registered description
// of each stat as a trailing column, turning a stats dump into its own
// legend (`asapsim -stats`).
func (s *Set) Describe() string {
	var b strings.Builder
	for _, n := range s.Names() {
		fmt.Fprintf(&b, "%-28s %-12d # %s\n", n, s.Get(n), Description(n))
	}
	for _, n := range s.distNames() {
		d := s.Dist(n)
		fmt.Fprintf(&b, "%-28s avg=%.2f p99=%d max=%d n=%d # %s\n",
			n, d.Mean(), d.Percentile(0.99), d.Max(), d.Count(), Description(n))
	}
	return b.String()
}

// distNames lists the observed distributions, sorted by name.
func (s *Set) distNames() []string {
	var out []string
	for k := range s.dists {
		if s.dists[k].observed() {
			out = append(out, names[k])
		}
	}
	sort.Strings(out)
	return out
}

// Dist is a bounded-resolution distribution of non-negative integer samples.
// Samples up to distBuckets-1 are counted exactly; larger samples share the
// overflow bucket but still contribute exactly to mean and max. The zero
// value is an empty distribution; its buckets are allocated by the first
// sample (or merge of a non-empty one), unless a Set's Reset kept them.
type Dist struct {
	// buckets is empty until observed, then distBuckets long (a clone's
	// may be shorter, ending at its largest sample). Empty buckets are nil,
	// or a Reset's kept storage of length zero.
	buckets []uint64
	over    uint64
	count   uint64
	sum     uint64
	max     uint64
}

const distBuckets = 4096

// observed reports whether d ever took a sample or a non-empty merge.
func (d *Dist) observed() bool { return len(d.buckets) != 0 }

// fill makes d's buckets distBuckets long: in the storage a Reset kept,
// zeroed past what d held, when it has room, else in a new array that
// keeps the counts d holds.
func (d *Dist) fill() {
	if cap(d.buckets) >= distBuckets {
		n := len(d.buckets)
		d.buckets = d.buckets[:distBuckets]
		clear(d.buckets[n:])
		return
	}
	b := make([]uint64, distBuckets)
	copy(b, d.buckets)
	d.buckets = b
}

// Observe records one sample.
func (d *Dist) Observe(v uint64) {
	if len(d.buckets) < distBuckets {
		d.fill()
	}
	d.count++
	d.sum += v
	if v > d.max {
		d.max = v
	}
	if v < distBuckets {
		d.buckets[v]++
	} else {
		d.over++
	}
}

// Merge folds other into d.
func (d *Dist) Merge(other *Dist) {
	if !other.observed() {
		return
	}
	if len(d.buckets) < distBuckets {
		d.fill()
	}
	for i, c := range other.buckets {
		d.buckets[i] += c
	}
	d.over += other.over
	d.count += other.count
	d.sum += other.sum
	if other.max > d.max {
		d.max = other.max
	}
}

// Count returns the number of samples observed.
func (d *Dist) Count() uint64 { return d.count }

// Sum returns the sum of all samples observed (the Prometheus summary
// _sum series).
func (d *Dist) Sum() uint64 { return d.sum }

// Mean returns the sample mean, or 0 for an empty distribution.
func (d *Dist) Mean() float64 {
	if d.count == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.count)
}

// Max returns the largest sample observed.
func (d *Dist) Max() uint64 { return d.max }

// Percentile returns the smallest value v such that at least p of the
// samples are <= v, for p in [0, 1]; values outside that range are clamped.
//
// Resolution is exact for samples below the bucket range. Samples in the
// overflow bucket lose per-value resolution, so any percentile whose target
// sample lands there reports Max — the distribution's true upper bound —
// rather than an interpolated guess. In particular Percentile(1) == Max()
// always, on both the exact-bucket and overflow paths.
func (d *Dist) Percentile(p float64) uint64 {
	if d.count == 0 {
		return 0
	}
	if p >= 1 {
		return d.max
	}
	if p < 0 {
		p = 0
	}
	// Smallest v with at least ceil(p * count) samples <= v.
	target := uint64(p * float64(d.count))
	if float64(target) < p*float64(d.count) {
		target++
	}
	if target == 0 {
		target = 1
	}
	if target > d.count-d.over {
		// The target sample is in the overflow bucket.
		return d.max
	}
	var cum uint64
	for v, c := range d.buckets {
		cum += c
		if cum >= target {
			return uint64(v)
		}
	}
	return d.max
}
