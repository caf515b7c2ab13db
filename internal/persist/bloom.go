package persist

import "asap/internal/mem"

// CountingBloom is the counting Bloom filter ASAP places at each memory
// controller to guard LLC evictions of NACKed lines (§V-F). NACKed flush
// addresses are added; an LLC eviction whose address hits must be delayed
// because the newest value is still in a persist buffer. When the flush is
// successfully retried the address is removed.
type CountingBloom struct {
	counters []uint8
	hashes   int
	// scratch backs the slice indices returns; the engine is
	// single-threaded, so one buffer per filter suffices and every
	// Add/Remove/MaybeContains probe stays allocation-free.
	scratch []int
	adds    uint64
	hits    uint64
}

// NewCountingBloom returns a filter with m counters and k hash functions.
func NewCountingBloom(m, k int) *CountingBloom {
	if m <= 0 || k <= 0 {
		panic("persist: bloom filter needs positive size and hash count")
	}
	b := &CountingBloom{counters: make([]uint8, m), hashes: k, scratch: make([]int, k)}
	b.Reset()
	return b
}

// Reset empties the filter, keeping its storage.
func (b *CountingBloom) Reset() {
	clear(b.counters)
	clear(b.scratch)
	*b = CountingBloom{counters: b.counters, hashes: b.hashes, scratch: b.scratch}
}

// indices derives k counter indices from the line address with a
// splitmix64-style mixer. The result aliases the filter's scratch buffer
// and is valid only until the next indices call.
func (b *CountingBloom) indices(l mem.Line) []int {
	idx := b.scratch
	x := uint64(l)
	for i := 0; i < b.hashes; i++ {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		idx[i] = int(z % uint64(len(b.counters)))
	}
	return idx
}

// Add inserts the line.
func (b *CountingBloom) Add(l mem.Line) {
	for _, i := range b.indices(l) {
		if b.counters[i] < 255 {
			b.counters[i]++
		}
	}
	b.adds++
}

// Remove deletes one insertion of the line. Removing a line that was never
// added can corrupt a plain Bloom filter; the counting variant saturates at
// zero, which matches hardware behaviour.
func (b *CountingBloom) Remove(l mem.Line) {
	for _, i := range b.indices(l) {
		if b.counters[i] > 0 {
			b.counters[i]--
		}
	}
}

// MaybeContains reports whether the line may be present (false positives
// possible, false negatives impossible apart from counter saturation).
func (b *CountingBloom) MaybeContains(l mem.Line) bool {
	for _, i := range b.indices(l) {
		if b.counters[i] == 0 {
			return false
		}
	}
	b.hits++
	return true
}

// Adds returns the number of insertions performed.
func (b *CountingBloom) Adds() uint64 { return b.adds }
