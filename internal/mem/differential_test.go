package mem

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
)

// xpOrder lists the cached lines from most to least recently used.
func (x *XPBuffer) xpOrder() []Line {
	var out []Line
	for n := x.nodes[0].next; n != 0; n = x.nodes[n].next {
		out = append(out, x.nodes[n].line)
	}
	return out
}

// checkNVM compares the slab NVM with the reference after an op.
func checkNVM(t *testing.T, step string, got *NVM, want *refNVM) {
	t.Helper()
	if err := got.Check(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if got.Writes() != want.writes || got.Reads() != want.reads {
		t.Fatalf("%s: writes/reads %d/%d, want %d/%d", step, got.Writes(), got.Reads(), want.writes, want.reads)
	}
	if snap := got.Snapshot(); !maps.Equal(snap, want.lines) {
		t.Fatalf("%s: snapshot of %d lines differs from the reference's %d", step, len(snap), len(want.lines))
	}
}

// TestNVMDifferential drives the slab NVM and the map reference with the
// same random writes (a fifth of them token 0, which must still create
// a line), reads and peeks over a footprint that forces the table through
// several doublings.
func TestNVMDifferential(t *testing.T) {
	for _, lines := range []uint64{8, 200, 3000} {
		t.Run(fmt.Sprint(lines), func(t *testing.T) {
			r := rand.New(rand.NewPCG(lines, 1))
			got, want := NewNVM(), newRefNVM()
			checkNVM(t, "empty", got, want)
			for i := 0; i < int(2*lines)+200; i++ {
				l := Line(r.Uint64N(lines) * 977) // spread, so probe runs interleave
				var step string
				switch op := r.IntN(8); {
				case op < 5:
					tok := Token(i + 1)
					if op == 0 {
						tok = 0
					}
					got.Write(l, tok)
					want.Write(l, tok)
					step = fmt.Sprintf("op %d Write(%d, %d)", i, l, tok)
				case op < 7:
					if g, w := got.Read(l), want.Read(l); g != w {
						t.Fatalf("op %d Read(%d) = %d, want %d", i, l, g, w)
					}
					step = fmt.Sprintf("op %d Read(%d)", i, l)
				default:
					if g, w := got.Peek(l), want.Peek(l); g != w {
						t.Fatalf("op %d Peek(%d) = %d, want %d", i, l, g, w)
					}
					step = fmt.Sprintf("op %d Peek(%d)", i, l)
				}
				checkNVM(t, step, got, want)
			}
			if lines == 3000 && len(got.slots) < 8*nvmInitSlots {
				t.Fatalf("table reached only %d slots; the footprint should force several doublings", len(got.slots))
			}
		})
	}
}

// TestWPQDifferential drives the ring WPQ and the map reference with the
// same random inserts (coalescing and not), pops, lookups and drains.
func TestWPQDifferential(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 16} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(capacity), 2))
			got, want := NewWPQ(capacity), newRefWPQ(capacity)
			gotNVM, wantNVM := NewNVM(), newRefNVM()
			for i := 0; i < 3000; i++ {
				l := Line(r.IntN(2*capacity + 2))
				switch op := r.IntN(16); {
				case op < 8:
					tok := Token(r.IntN(4)) // token 0 included
					if g, w := got.Insert(l, tok), want.Insert(l, tok); g != w {
						t.Fatalf("op %d Insert(%d, %d) = %v, want %v", i, l, tok, g, w)
					}
				case op < 12:
					if want.Len() == 0 {
						continue
					}
					gl, gt := got.Pop()
					wl, wt := want.Pop()
					if gl != wl || gt != wt {
						t.Fatalf("op %d Pop = (%d, %d), want (%d, %d)", i, gl, gt, wl, wt)
					}
				case op < 15:
					gt, gok := got.Contains(l)
					wt, wok := want.Contains(l)
					if gt != wt || gok != wok {
						t.Fatalf("op %d Contains(%d) = (%d, %v), want (%d, %v)", i, l, gt, gok, wt, wok)
					}
				default:
					got.Drain(gotNVM)
					want.Drain(wantNVM)
					checkNVM(t, fmt.Sprintf("op %d Drain", i), gotNVM, wantNVM)
				}
				if err := got.Check(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if got.Len() != want.Len() || got.Full() != want.Full() ||
					got.Coalesced() != want.coalesced || got.MaxOccupancy() != want.maxOcc {
					t.Fatalf("op %d: len %d full %v coalesced %d max %d, want %d %v %d %d", i,
						got.Len(), got.Full(), got.Coalesced(), got.MaxOccupancy(),
						want.Len(), want.Full(), want.coalesced, want.maxOcc)
				}
			}
		})
	}
}

// TestXPBufferDifferential drives the slab XPBuffer and the pointer-list
// reference with the same random inserts and lookups, requiring the same
// results, counters and exact LRU order after every op. Line footprints
// just above the capacity keep evictions (and so index deletions) frequent.
func TestXPBufferDifferential(t *testing.T) {
	for _, capacity := range []int{0, 1, 2, 7, 64, 512} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(capacity), 3))
			got, want := NewXPBuffer(capacity), newRefXPBuffer(capacity)
			span := capacity + capacity/2 + 2
			for i := 0; i < 4000; i++ {
				l := Line(r.IntN(span) * 61)
				if r.IntN(2) == 0 {
					tok := Token(r.IntN(3))
					got.Insert(l, tok)
					want.Insert(l, tok)
				} else {
					gt, gok := got.Lookup(l)
					wt, wok := want.Lookup(l)
					if gt != wt || gok != wok {
						t.Fatalf("op %d Lookup(%d) = (%d, %v), want (%d, %v)", i, l, gt, gok, wt, wok)
					}
				}
				if err := got.Check(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if got.Len() != want.Len() || got.Hits() != want.hits || got.Misses() != want.misses {
					t.Fatalf("op %d: len %d hits %d misses %d, want %d %d %d", i,
						got.Len(), got.Hits(), got.Misses(), want.Len(), want.hits, want.misses)
				}
				if g, w := got.xpOrder(), want.order(); !slices.Equal(g, w) {
					t.Fatalf("op %d: LRU order %v, want %v", i, g, w)
				}
			}
		})
	}
}

// TestMemSteadyStateAllocs pins the hot operations at zero allocations
// once the structures are warm: WPQ insert/pop, XPBuffer insert (with
// eviction) and lookup, and NVM writes to lines already written.
func TestMemSteadyStateAllocs(t *testing.T) {
	w := NewWPQ(16)
	x := NewXPBuffer(512)
	n := NewNVM()
	for l := Line(0); l < 1024; l++ {
		x.Insert(l, Token(l))
		n.Write(l, Token(l))
	}
	var l Line
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"WPQ.Insert+Pop", func() { w.Insert(l%32, Token(l)); w.Pop() }},
		{"XPBuffer.Insert", func() { x.Insert(l%2048, Token(l)) }},
		{"XPBuffer.Lookup", func() { x.Lookup(l % 2048) }},
		{"NVM.Write", func() { n.Write(l%1024, Token(l)) }},
	} {
		if a := testing.AllocsPerRun(1000, func() { l += 7; c.fn() }); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, a)
		}
	}
}

// TestCheckRejects covers the malformed states Check must report without
// probing forever or indexing out of range, beyond the single-field image
// patches the checkpoint package's tests apply.
func TestCheckRejects(t *testing.T) {
	xpWith := func(capacity, lines int) *XPBuffer {
		x := NewXPBuffer(capacity)
		for l := 0; l < lines; l++ {
			x.Insert(Line(l), Token(l))
		}
		return x
	}
	for _, c := range []struct {
		what string
		bad  func() error
	}{
		{"NVM table with no empty slot", func() error {
			n := &NVM{slots: []nvmSlot{{key: 1}, {key: 2}, {key: 3}, {key: 4}}, used: 4}
			return n.Check()
		}},
		{"NVM table size not a power of two", func() error {
			return (&NVM{slots: make([]nvmSlot, 3)}).Check()
		}},
		{"WPQ without a ring", func() error { return (&WPQ{}).Check() }},
		{"WPQ queueing a line twice", func() error {
			w := NewWPQ(4)
			w.Insert(1, 1)
			w.Insert(2, 2)
			w.ring[1].line = 1
			return w.Check()
		}},
		{"XPBuffer without its sentinel", func() error {
			x := xpWith(4, 0)
			x.nodes = nil
			return x.Check()
		}},
		{"XPBuffer index with no room to spare", func() error {
			x := xpWith(4, 2)
			x.index = x.index[:4]
			return x.Check()
		}},
		{"XPBuffer LRU cycle", func() error {
			x := xpWith(4, 3)
			last := x.nodes[0].prev
			x.nodes[last].next = x.nodes[0].next
			return x.Check()
		}},
		{"XPBuffer list shorter than the slab", func() error {
			x := xpWith(4, 3)
			first := x.nodes[0].next
			x.nodes[0].next, x.nodes[x.nodes[first].next].prev = x.nodes[first].next, 0
			return x.Check()
		}},
	} {
		if err := c.bad(); err == nil {
			t.Errorf("%s: Check passed", c.what)
		}
	}
	for _, x := range []*XPBuffer{xpWith(0, 3), xpWith(1, 3), xpWith(4, 3)} {
		if err := x.Check(); err != nil {
			t.Errorf("valid XPBuffer of %d lines: %v", x.capacity, err)
		}
	}
}
