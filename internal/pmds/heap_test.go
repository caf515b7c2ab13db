package pmds

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"asap/internal/trace"
)

func TestHeapAllocAlignment(t *testing.T) {
	h := NewHeap(1<<20, 1)
	a := h.Alloc(10, 64)
	if a%64 != 0 {
		t.Fatalf("alloc not 64-aligned: %#x", a)
	}
	b := h.Alloc(8, 0) // default alignment
	if b%8 != 0 {
		t.Fatalf("alloc not 8-aligned: %#x", b)
	}
	if b <= a {
		t.Fatal("allocations overlap")
	}
}

func TestHeapExhaustionPanics(t *testing.T) {
	h := NewHeap(8192, 1)
	defer func() {
		if recover() == nil {
			t.Error("exhausted heap did not panic")
		}
	}()
	h.Alloc(1<<20, 8)
}

func TestHeapReadWriteRoundTrip(t *testing.T) {
	h := NewHeap(1<<20, 2)
	a := h.Alloc(64, 64)
	h.SetThread(1)
	h.Write64(a, 0xDEADBEEF)
	if h.Read64(a) != 0xDEADBEEF || h.Peek64(a) != 0xDEADBEEF {
		t.Fatal("round trip failed")
	}
	if h.Thread() != 1 {
		t.Fatal("thread attribution lost")
	}
	// The write and read were recorded on thread 1's stream.
	tr := h.Trace("t")
	c1 := 0
	for _, op := range tr.Threads[1] {
		if op.Addr == a {
			c1++
		}
	}
	if c1 < 2 {
		t.Fatalf("thread 1 stream has %d ops on the address", c1)
	}
}

func TestHeapOutOfRangePanics(t *testing.T) {
	h := NewHeap(4096+64, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-heap access did not panic")
		}
	}()
	h.Read64(PMBase + 1<<30)
}

func TestWriteValueMultiLine(t *testing.T) {
	h := NewHeap(1<<20, 1)
	a := h.Alloc(256, 64)
	before := h.PStoreCount(0)
	h.WriteValue(a, 42, 256)
	stores := h.PStoreCount(0) - before
	if stores != 4 { // 256 B = 4 lines
		t.Fatalf("WriteValue(256B) emitted %d stores, want 4", stores)
	}
	if h.ReadValue(a, 256) != 42 {
		t.Fatal("ReadValue mismatch")
	}
}

func TestCaptureImages(t *testing.T) {
	h := NewHeap(1<<20, 2)
	h.CaptureImages()
	a := h.Alloc(64, 64)
	h.SetThread(1)
	h.Write64(a, 7)
	h.Write64(a+8, 9)
	imgs := h.Images(1)
	if len(imgs) != 2 {
		t.Fatalf("images = %d, want 2", len(imgs))
	}
	lineAddr := a &^ 63
	if imgs[0].LineAddr != lineAddr || imgs[1].LineAddr != lineAddr {
		t.Fatal("image line addresses wrong")
	}
	// The second image includes both words.
	var w0, w1 uint64
	for i := 0; i < 8; i++ {
		w0 |= uint64(imgs[1].Data[(a%64)+uint64(i)]) << (8 * i)
		w1 |= uint64(imgs[1].Data[(a%64)+8+uint64(i)]) << (8 * i)
	}
	if w0 != 7 || w1 != 9 {
		t.Fatalf("image content = %d,%d, want 7,9", w0, w1)
	}
	// Image indexing matches the persistent-store sequence.
	if h.PStoreCount(1) != 2 {
		t.Fatalf("pstore count = %d", h.PStoreCount(1))
	}
}

func TestReopenHeap(t *testing.T) {
	h := NewHeap(1<<20, 1)
	a := h.Alloc(64, 64)
	h.Write64(a, 123)
	img := make([]byte, 1<<20)
	// Simulate RebuildImage: copy the raw line.
	copy(img[a-PMBase:], []byte{123})
	h2 := ReopenHeap(img, 1)
	if h2.Peek64(a) != 123 {
		t.Fatal("reopened heap lost data")
	}
	// Reopened heaps cannot allocate.
	defer func() {
		if recover() == nil {
			t.Error("alloc on a reopened heap did not panic")
		}
	}()
	h2.Alloc(64, 64)
}

func TestLockAddressesDistinct(t *testing.T) {
	h := NewHeap(1<<20, 1)
	a, b := h.NewLock(), h.NewLock()
	if a == b || a/64 == b/64 {
		t.Fatal("locks share a cache line")
	}
	if a >= PMBase {
		t.Fatal("lock address inside persistent memory")
	}
}

func TestStrandRecording(t *testing.T) {
	h := NewHeap(1<<20, 1)
	h.NewStrand()
	h.NewStrand()
	tr := h.Trace("s")
	if tr.Counts()[trace.OpStrand] != 2 {
		t.Fatal("strand ops not recorded")
	}
}

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want %q", msg, want)
		}
	}()
	f()
}

// backed returns the bytes of host memory backing h.
func (h *Heap) backed() int {
	n := 0
	for _, pg := range h.pages {
		n += len(pg)
	}
	return n
}

// TestHeapCapBounds: the heap is backed on demand, but Alloc still
// exhausts and accesses still fall outside at exactly size bytes, however
// little of it is backed.
func TestHeapCapBounds(t *testing.T) {
	const size = 1 << 20
	h := NewHeap(size, 1)
	h.Alloc(size-4096-64, 1)
	a := h.Alloc(64, 64) // the last 64 bytes of the cap
	if a != PMBase+size-64 {
		t.Fatalf("last alloc at %#x, want %#x", a, PMBase+size-64)
	}
	mustPanic(t, "heap exhausted", func() { h.Alloc(1, 1) })

	h.Write64(PMBase+size-8, 5) // the last word backs the last page only
	if h.Peek64(PMBase+size-8) != 5 || h.Read64(PMBase+size-8) != 5 {
		t.Fatal("last word lost")
	}
	if h.backed() != pageSize {
		t.Fatalf("backing %d bytes, want the last page's %d", h.backed(), pageSize)
	}
	for _, addr := range []uint64{PMBase + size - 7, PMBase + size, PMBase - 8, PMBase - 1} {
		mustPanic(t, "outside heap", func() { h.Read64(addr) })
		mustPanic(t, "outside heap", func() { h.Write64(addr, 1) })
		mustPanic(t, "outside heap", func() { h.Peek64(addr) })
	}

	// The last page is clipped to the cap: a 12 KiB heap, smaller than
	// one page, backs 12 KiB, not a whole page.
	odd := NewHeap(3*4096, 1)
	odd.Write64(PMBase+8184, 1)
	odd.Write64(PMBase+3*4096-8, 2)
	if odd.backed() != 3*4096 {
		t.Fatalf("backing grew to %d bytes past the %d-byte cap", odd.backed(), 3*4096)
	}

	fresh := NewHeap(size, 1)
	mustPanic(t, "outside heap", func() { fresh.Peek64(PMBase + size) })
	mustPanic(t, "heap exhausted", func() { fresh.Alloc(size-4096+1, 1) })
}

// TestHeapUnbackedReadsZero: bytes inside the cap but on unbacked pages
// read as zero, including a word that straddles a backed page's end, and
// backing a new page keeps what was written.
func TestHeapUnbackedReadsZero(t *testing.T) {
	const size = 1 << 20
	h := NewHeap(size, 1)
	if h.backed() != 0 {
		t.Fatalf("fresh heap backs %d bytes, want none", h.backed())
	}
	for _, off := range []uint64{4096, 8192, size / 2, size - 8} {
		if v := h.Peek64(PMBase + off); v != 0 {
			t.Fatalf("unbacked word at +%d reads %#x", off, v)
		}
	}
	h.Write64(PMBase+pageSize-8, 0x1122334455667788) // ends the first page
	if h.backed() != pageSize {
		t.Fatalf("backing %d bytes after a write in the first page", h.backed())
	}
	if v := h.Peek64(PMBase + pageSize - 4); v != 0x11223344 {
		t.Fatalf("straddling word reads %#x, want %#x", v, 0x11223344)
	}
	h.Write64(PMBase+size/2, 9)
	if h.Peek64(PMBase+pageSize-8) != 0x1122334455667788 || h.Peek64(PMBase+size/2) != 9 {
		t.Fatal("backing a page lost a written word")
	}
	if v := h.Peek64(PMBase + size/2 + 8); v != 0 {
		t.Fatalf("word past the last write reads %#x", v)
	}
	if h.backed() != 2*pageSize {
		t.Fatalf("backing %d bytes after writes in two pages", h.backed())
	}
}

// TestHeapWordStraddlesPages: a word written across a page boundary backs
// both pages and reads back whole, and its halves read back from each
// page.
func TestHeapWordStraddlesPages(t *testing.T) {
	h := NewHeap(1<<20, 1)
	at := PMBase + 3*pageSize - 4
	h.Write64(at, 0x1122334455667788)
	if h.backed() != 2*pageSize {
		t.Fatalf("straddling write backs %d bytes, want two pages", h.backed())
	}
	if v := h.Read64(at); v != 0x1122334455667788 {
		t.Fatalf("straddling word reads %#x", v)
	}
	if v := h.Peek64(at - 4); v != 0x5566778800000000 {
		t.Fatalf("low half reads %#x from the first page", v)
	}
	if v := h.Peek64(at + 4); v != 0x11223344 {
		t.Fatalf("high half reads %#x from the second page", v)
	}
}

// TestReopenHeapRoundTrip: a reopened heap reads back every byte of its
// image, owns a copy of it, and cannot allocate.
func TestReopenHeapRoundTrip(t *testing.T) {
	img := make([]byte, 3*4096+64)
	for i := range img {
		img[i] = byte(i*7 + 1)
	}
	h := ReopenHeap(img, 2)
	if h.Used() != uint64(len(img)) {
		t.Fatalf("Used = %d, want %d", h.Used(), len(img))
	}
	for off := 0; off+8 <= len(img); off += 8 {
		if got, want := h.Peek64(PMBase+uint64(off)), binary.LittleEndian.Uint64(img[off:]); got != want {
			t.Fatalf("word +%d = %#x, want %#x", off, got, want)
		}
	}
	img[0]++
	if h.Peek64(PMBase) == binary.LittleEndian.Uint64(img) {
		t.Fatal("reopened heap aliases its image")
	}
	mustPanic(t, "outside heap", func() { h.Peek64(PMBase + uint64(len(img))) })
	mustPanic(t, "heap exhausted", func() { h.Alloc(8, 8) })
}

// TestCaptureImagesMetadataLines: with more than eight threads, allocator
// metadata lines fall past the reserved page. One on an unbacked page
// records a zero line, and one on a backed page records the line's bytes,
// exactly as when the whole heap was allocated up front.
func TestCaptureImagesMetadataLines(t *testing.T) {
	h := NewHeap(1<<20, 16)
	h.CaptureImages()
	h.SetThread(15)
	h.Alloc(64, 64) // meta line (15*8+1)*64 = 7744, unbacked
	imgs := h.Images(15)
	if len(imgs) != 1 || imgs[0].LineAddr != PMBase+7744 || imgs[0].Data != [64]byte{} {
		t.Fatalf("unbacked metadata line image = %+v", imgs)
	}
	if h.backed() != 0 {
		t.Fatalf("metadata store backed %d bytes", h.backed())
	}

	h.SetThread(0)
	h.Write64(PMBase+7808+8, 0xABCD) // back the next metadata line and fill a word
	h.SetThread(15)
	h.Alloc(8, 8) // meta line (15*8+2)*64 = 7808, backed
	imgs = h.Images(15)
	last := imgs[len(imgs)-1]
	if last.LineAddr != PMBase+7808 {
		t.Fatalf("second metadata line at %#x", last.LineAddr)
	}
	if got := binary.LittleEndian.Uint64(last.Data[8:]); got != 0xABCD {
		t.Fatalf("backed metadata line image holds %#x, want the written word", got)
	}
}
