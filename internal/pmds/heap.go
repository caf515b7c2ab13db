// Package pmds implements the persistent data structures the ASAP paper
// uses as workloads (Table III): CCEH extendible hashing, the FAST&FAIR
// B+-tree, Dash level/extendible hashing, RECIPE-style P-ART, P-CLHT and
// P-Masstree, and the Atlas lock-based heap, queue and skip list.
//
// The structures are real: their algorithms run over a byte-addressable
// simulated persistent heap, reading and writing actual bytes via
// encoding/binary. Every heap access, fence and lock operation is recorded
// into per-thread traces (package trace), which the timing machine replays.
// Functional correctness is tested directly against map/slice oracles.
package pmds

import (
	"encoding/binary"
	"fmt"

	"asap/internal/trace"
)

// Memory layout constants.
const (
	// PMBase is the first byte address of persistent memory. Lock and
	// other volatile addresses live below it.
	PMBase = uint64(1) << 32
	// LockBase is where simulated lock words are allocated.
	LockBase = uint64(1) << 24
	lineSize = 64
)

// Heap is a simulated persistent-memory heap with per-thread trace
// recording. Structure code calls SetThread to attribute subsequent
// operations; generation is single-goroutine, so no synchronization is
// needed even though the recorded trace is multi-threaded.
//
// The heap spans size bytes from PMBase, but only the pages that have been
// written are backed by host memory: a page is allocated on its first
// write and never moved or copied, and bytes on unbacked pages read as
// zero. A short run therefore costs what it touches, not the cap it was
// given.
type Heap struct {
	pages [][]byte // pages[i] backs offsets from i*pageSize; nil reads as zero
	size  uint64   // the heap's extent in bytes
	brk   uint64   // allocation offset

	builders []trace.Builder
	cur      int

	nextLock uint64
	allocs   uint64

	// images, when non-nil, records the post-store content of each
	// written line per thread (see CaptureImages).
	images map[int][]LineImage
}

// heapPage is the reserved first page of the heap's address space, where
// the allocator's metadata lines live.
const heapPage = 4096

// pageShift sizes the pages that back the heap: 16 KiB, a multiple of the
// line size, so a line never straddles two pages.
const (
	pageShift = 14
	pageSize  = 1 << pageShift
)

// NewHeap returns a heap of size bytes recording nthreads trace streams.
// No bytes are backed up front; size is the cap the heap may touch.
func NewHeap(size int, nthreads int) *Heap {
	if nthreads <= 0 {
		panic("pmds: need at least one thread")
	}
	return &Heap{
		size:     uint64(size),
		brk:      heapPage, // first page reserved for allocator metadata
		builders: make([]trace.Builder, nthreads),
		nextLock: LockBase,
	}
}

// SetThread attributes subsequent operations to logical thread t.
func (h *Heap) SetThread(t int) { h.cur = t }

// Thread returns the current logical thread.
func (h *Heap) Thread() int { return h.cur }

// b returns the active builder.
func (h *Heap) b() *trace.Builder { return &h.builders[h.cur] }

// Trace compiles the streams recorded so far into a trace (trace.Compile).
func (h *Heap) Trace(name string) *trace.Trace { return trace.Compile(name, h.builders) }

// Alloc reserves n bytes aligned to align (power of two) and returns the
// address. One metadata store models allocator persistence.
func (h *Heap) Alloc(n int, align uint64) uint64 {
	if align == 0 {
		align = 8
	}
	h.brk = (h.brk + align - 1) &^ (align - 1)
	if h.brk+uint64(n) > h.size {
		panic(fmt.Sprintf("pmds: heap exhausted (%d + %d > %d)", h.brk, n, h.size))
	}
	addr := PMBase + h.brk
	h.brk += uint64(n)
	h.allocs++
	// Allocator metadata persistence: per-thread arena lines in the
	// reserved first page (real PM allocators keep per-thread arenas, so
	// allocation must not create artificial cross-thread sharing).
	meta := PMBase + (uint64(h.cur)*8+(h.allocs%8))*lineSize
	h.b().StoreP(meta)
	h.recordImage(meta)
	return addr
}

// NewLock returns a fresh volatile lock address (one per cache line).
func (h *Heap) NewLock() uint64 {
	a := h.nextLock
	h.nextLock += lineSize
	return a
}

func (h *Heap) off(addr uint64) uint64 {
	if addr < PMBase || addr+8 > PMBase+h.size {
		panic(fmt.Sprintf("pmds: address %#x outside heap", addr))
	}
	return addr - PMBase
}

// page returns the page holding heap offset off, or nil if it is not
// backed.
func (h *Heap) page(off uint64) []byte {
	if i := off >> pageShift; i < uint64(len(h.pages)) {
		return h.pages[i]
	}
	return nil
}

// backPage returns the page holding heap offset off, backing it first if
// needed. The heap's last page is clipped to size.
func (h *Heap) backPage(off uint64) []byte {
	i := off >> pageShift
	for uint64(len(h.pages)) <= i {
		h.pages = append(h.pages, nil)
	}
	if h.pages[i] == nil {
		h.pages[i] = make([]byte, min(pageSize, h.size-i<<pageShift))
	}
	return h.pages[i]
}

// load reads the word at heap offset off; bytes on unbacked pages read as
// zero.
func (h *Heap) load(off uint64) uint64 {
	if in := off & (pageSize - 1); in+8 <= pageSize {
		if pg := h.page(off); pg != nil {
			return binary.LittleEndian.Uint64(pg[in:])
		}
		return 0
	}
	var w [8]byte
	for i := range w {
		o := off + uint64(i)
		if pg := h.page(o); pg != nil {
			w[i] = pg[o&(pageSize-1)]
		}
	}
	return binary.LittleEndian.Uint64(w[:])
}

// store writes the word at heap offset off, backing its pages.
func (h *Heap) store(off, v uint64) {
	if in := off & (pageSize - 1); in+8 <= pageSize {
		binary.LittleEndian.PutUint64(h.backPage(off)[in:], v)
		return
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	for i, c := range w {
		o := off + uint64(i)
		h.backPage(o)[o&(pageSize-1)] = c
	}
}

// Read64 loads a uint64, recording the access.
func (h *Heap) Read64(addr uint64) uint64 {
	h.b().Load(addr)
	return h.load(h.off(addr))
}

// Write64 stores a uint64 persistently, recording the access.
func (h *Heap) Write64(addr uint64, v uint64) {
	h.b().StoreP(addr)
	h.store(h.off(addr), v)
	h.recordImage(addr)
}

// Peek64 reads without recording (assertions, oracles).
func (h *Heap) Peek64(addr uint64) uint64 {
	return h.load(h.off(addr))
}

// WriteValue writes a value of the given byte size starting at addr: the
// first word carries val (so functional tests can read it back) and the
// remaining lines are touched with one persistent store each.
func (h *Heap) WriteValue(addr uint64, val uint64, size int) {
	h.Write64(addr, val)
	for o := lineSize; o < size; o += lineSize {
		h.b().StoreP(addr + uint64(o))
		h.recordImage(addr + uint64(o))
	}
}

// ReadValue reads a value written by WriteValue.
func (h *Heap) ReadValue(addr uint64, size int) uint64 {
	v := h.Read64(addr)
	for o := lineSize; o < size; o += lineSize {
		h.b().Load(addr + uint64(o))
	}
	return v
}

// Ofence and Dfence record persist barriers.
func (h *Heap) Ofence() { h.b().Ofence() }
func (h *Heap) Dfence() { h.b().Dfence() }

// Acquire and Release record lock operations.
func (h *Heap) Acquire(lock uint64) { h.b().Acquire(lock) }
func (h *Heap) Release(lock uint64) { h.b().Release(lock) }

// Compute records n cycles of computation (hashing, comparisons).
func (h *Heap) Compute(n uint32) { h.b().Compute(n) }

// NewStrand records a strand boundary (strand persistency annotation).
func (h *Heap) NewStrand() { h.b().NewStrand() }

// PStoreCount returns the number of persistent stores thread t has emitted
// so far — the sequence numbering shared with machine token origins.
func (h *Heap) PStoreCount(t int) int { return h.builders[t].PersistentStores() }

// ReopenHeap wraps an existing byte image (for example one reconstructed by
// crash.RebuildImage) as a heap for post-restart reads. The allocator is
// positioned at the end of the image: reopened structures can be read and
// updated in place but cannot allocate.
func ReopenHeap(data []byte, nthreads int) *Heap {
	h := NewHeap(len(data), nthreads)
	for off := 0; off < len(data); off += pageSize {
		copy(h.backPage(uint64(off)), data[off:])
	}
	h.brk = uint64(len(data))
	return h
}

// Used returns allocated bytes.
func (h *Heap) Used() uint64 { return h.brk }

// LineImage is the byte content of one 64-byte line immediately after one
// persistent store — recorded when image capture is on, so a crashed NVM
// image can be reconstructed at line granularity (package crash).
type LineImage struct {
	LineAddr uint64 // first byte address of the line
	Data     [64]byte
}

// CaptureImages turns on per-store line-image recording.
func (h *Heap) CaptureImages() {
	h.images = make(map[int][]LineImage)
}

// Images returns thread t's recorded images, indexed by the thread's
// persistent-store sequence number (the i-th OpStore with Persistent=true
// in its trace).
func (h *Heap) Images(t int) []LineImage { return h.images[t] }

// recordImage captures the line containing addr for the current thread.
// Metadata stores outside the heap capture as zero lines, as do in-heap
// lines on unbacked pages (their bytes are zero).
func (h *Heap) recordImage(addr uint64) {
	if h.images == nil {
		return
	}
	lineAddr := addr &^ uint64(lineSize-1)
	img := LineImage{LineAddr: lineAddr}
	if off := lineAddr - PMBase; lineAddr >= PMBase && off+lineSize <= h.size {
		if pg := h.page(off); pg != nil {
			copy(img.Data[:], pg[off&(pageSize-1):])
		}
	}
	h.images[h.cur] = append(h.images[h.cur], img)
}
