package mem

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestLineMath(t *testing.T) {
	if LineOf(0) != 0 || LineOf(63) != 0 || LineOf(64) != 1 || LineOf(129) != 2 {
		t.Fatal("LineOf wrong")
	}
	if Line(3).Addr() != 192 {
		t.Fatal("Addr wrong")
	}
}

func TestInterleaver(t *testing.T) {
	iv := NewInterleaver(2, 256)
	// 256 B = 4 lines per granule; lines 0-3 -> MC0, 4-7 -> MC1, ...
	for l := Line(0); l < 4; l++ {
		if iv.Home(l) != 0 {
			t.Fatalf("line %d home %d, want 0", l, iv.Home(l))
		}
	}
	for l := Line(4); l < 8; l++ {
		if iv.Home(l) != 1 {
			t.Fatalf("line %d home %d, want 1", l, iv.Home(l))
		}
	}
	if iv.Home(8) != 0 {
		t.Fatal("interleave should wrap")
	}
	if iv.NumMC() != 2 {
		t.Fatal("NumMC wrong")
	}
}

func TestInterleaverBalance(t *testing.T) {
	iv := NewInterleaver(4, 4096)
	counts := make([]int, 4)
	for l := Line(0); l < 4096; l++ {
		counts[iv.Home(l)]++
	}
	for mc, c := range counts {
		if c != 1024 {
			t.Fatalf("MC %d got %d lines, want 1024", mc, c)
		}
	}
}

func TestInterleaverValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewInterleaver(0, 256) },
		func() { NewInterleaver(2, 0) },
		func() { NewInterleaver(2, 100) }, // not a line multiple
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad interleaver config did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestNVM covers reads, writes, the counters and Snapshot on a table
// sized for three lines, which holds them at its 3/4 load bound, takes
// rewrites, and panics on a fourth line, naming it.
func TestNVM(t *testing.T) {
	n := NewNVM(3)
	if n.Read(5) != 0 {
		t.Fatal("unwritten line not zero")
	}
	n.Write(5, 99)
	if n.Read(5) != 99 {
		t.Fatal("read after write wrong")
	}
	if n.Writes() != 1 || n.Reads() != 2 {
		t.Fatalf("counters writes=%d reads=%d", n.Writes(), n.Reads())
	}
	if n.Peek(5) != 99 || n.Reads() != 2 {
		t.Fatal("Peek should not count a media access")
	}
	snap := n.Snapshot()
	n.Write(5, 100)
	if snap[5] != 99 {
		t.Fatal("snapshot aliases live state")
	}
	n.Write(6, 1)
	n.Write(7, 2)
	n.Write(6, 3)
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "line 8 ") {
			t.Fatalf("a fourth line panicked with %v, want the line named", r)
		}
	}()
	n.Write(8, 4)
	t.Fatal("a fourth line fit a table sized for three")
}

func TestXPBufferLRU(t *testing.T) {
	x := NewXPBuffer(2)
	x.Insert(1, 10)
	x.Insert(2, 20)
	if _, ok := x.Lookup(1); !ok {
		t.Fatal("line 1 missing")
	}
	x.Insert(3, 30) // evicts 2 (1 was just touched)
	if _, ok := x.Lookup(2); ok {
		t.Fatal("line 2 should have been evicted (LRU)")
	}
	if v, ok := x.Lookup(1); !ok || v != 10 {
		t.Fatal("line 1 lost")
	}
	if v, ok := x.Lookup(3); !ok || v != 30 {
		t.Fatal("line 3 lost")
	}
	if x.Len() != 2 {
		t.Fatalf("len = %d", x.Len())
	}
	if x.Hits() != 3 || x.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", x.Hits(), x.Misses())
	}
}

func TestXPBufferUpdateInPlace(t *testing.T) {
	x := NewXPBuffer(2)
	x.Insert(1, 10)
	x.Insert(1, 11)
	if x.Len() != 1 {
		t.Fatal("update created a duplicate")
	}
	if v, _ := x.Lookup(1); v != 11 {
		t.Fatal("update lost")
	}
}

func TestXPBufferDisabled(t *testing.T) {
	x := NewXPBuffer(0)
	x.Insert(1, 10)
	if _, ok := x.Lookup(1); ok {
		t.Fatal("disabled buffer should always miss")
	}
}

func TestWPQBasics(t *testing.T) {
	w := NewWPQ(2)
	if !w.Insert(1, 10) || !w.Insert(2, 20) {
		t.Fatal("inserts rejected")
	}
	if !w.Full() {
		t.Fatal("should be full")
	}
	if w.Insert(3, 30) {
		t.Fatal("full queue accepted a new line")
	}
	// Coalescing always succeeds.
	if !w.Insert(1, 11) {
		t.Fatal("coalescing insert rejected")
	}
	if w.Coalesced() != 1 {
		t.Fatal("coalesce not counted")
	}
	l, tok := w.Pop()
	if l != 1 || tok != 11 {
		t.Fatalf("pop = (%d,%d), want (1,11) FIFO with coalesced token", l, tok)
	}
	l, tok = w.Pop()
	if l != 2 || tok != 20 {
		t.Fatalf("pop = (%d,%d)", l, tok)
	}
}

func TestWPQDrain(t *testing.T) {
	w := NewWPQ(4)
	n := NewNVM(2)
	w.Insert(1, 10)
	w.Insert(2, 20)
	w.Drain(n)
	if w.Len() != 0 {
		t.Fatal("drain left entries")
	}
	if n.Peek(1) != 10 || n.Peek(2) != 20 {
		t.Fatal("drain lost writes")
	}
}

// TestWPQOracle (property): the WPQ behaves like a FIFO of distinct lines
// with last-writer-wins tokens.
func TestWPQOracle(t *testing.T) {
	type op struct {
		Line  uint8
		Token uint16
		Pop   bool
	}
	prop := func(ops []op) bool {
		w := NewWPQ(8)
		var order []Line
		pending := make(map[Line]Token)
		for _, o := range ops {
			if o.Pop {
				if len(order) == 0 {
					continue
				}
				l, tok := w.Pop()
				if l != order[0] || tok != pending[l] {
					return false
				}
				order = order[1:]
				delete(pending, l)
				continue
			}
			l, tok := Line(o.Line%16), Token(o.Token)
			okModel := true
			if _, exists := pending[l]; !exists {
				if len(order) >= 8 {
					okModel = false
				} else {
					order = append(order, l)
				}
			}
			ok := w.Insert(l, tok)
			if ok != okModel {
				return false
			}
			if ok {
				pending[l] = tok
			}
		}
		return w.Len() == len(order)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
