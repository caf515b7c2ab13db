package trace

import (
	"slices"
	"strings"
	"testing"
	"unsafe"
)

func TestBuilder(t *testing.T) {
	var b Builder
	b.Compute(10)
	b.Load(0x40)
	b.StoreP(0x80)
	b.StoreV(0xc0)
	b.Ofence()
	b.Dfence()
	b.Acquire(0x1000)
	b.Release(0x1000)
	ops := b.Ops()
	if len(ops) != 8 || b.Len() != 8 {
		t.Fatalf("len = %d", len(ops))
	}
	if ops[0].Kind != OpCompute || ops[0].N != 10 {
		t.Fatal("compute op wrong")
	}
	if ops[2].Kind != OpStore || !ops[2].Persistent {
		t.Fatal("persistent store wrong")
	}
	if ops[3].Kind != OpStore || ops[3].Persistent {
		t.Fatal("volatile store wrong")
	}
	if ops[6].Kind != OpAcquire || ops[6].Addr != 0x1000 {
		t.Fatal("acquire wrong")
	}
}

func TestTraceCounts(t *testing.T) {
	var a, b Builder
	a.StoreP(0x40)
	a.Ofence()
	b.Load(0x40)
	tr := &Trace{Name: "x", Threads: [][]Op{a.Ops(), b.Ops()}}
	if tr.NumThreads() != 2 || tr.TotalOps() != 3 {
		t.Fatal("counts wrong")
	}
	c := tr.Counts()
	if c[OpStore] != 1 || c[OpOfence] != 1 || c[OpLoad] != 1 {
		t.Fatalf("counts = %v", c)
	}
}

func TestCompile(t *testing.T) {
	var a, b, c Builder
	a.StoreP(0x40)
	a.Ofence()
	b.Load(0x80)
	// c stays empty: zero-length thread streams must survive compilation.
	tr := &Trace{Name: "x", Threads: [][]Op{a.Ops(), c.Ops(), b.Ops()}}
	want := [][]Op{append([]Op(nil), a.Ops()...), nil, append([]Op(nil), b.Ops()...)}

	if got := tr.Compile(); got != tr {
		t.Fatal("Compile must return its receiver")
	}
	if tr.NumThreads() != 3 || tr.TotalOps() != 3 {
		t.Fatalf("counts changed: threads=%d ops=%d", tr.NumThreads(), tr.TotalOps())
	}
	for i, th := range tr.Threads {
		if len(th) != len(want[i]) {
			t.Fatalf("thread %d: len %d, want %d", i, len(th), len(want[i]))
		}
		for j := range th {
			if th[j] != want[i][j] {
				t.Fatalf("thread %d op %d changed: %+v != %+v", i, j, th[j], want[i][j])
			}
		}
		// Capacity-clipped windows: appending through one thread's slice
		// must reallocate, never bleed into the next thread's ops.
		if cap(th) != len(th) {
			t.Fatalf("thread %d window not capacity-clipped: cap %d, len %d", i, cap(th), len(th))
		}
	}
	// Adjacent non-empty windows share one arena: thread 2 starts right
	// after thread 0's two ops.
	base := unsafe.Pointer(&tr.Threads[0][0])
	next := unsafe.Add(base, uintptr(len(tr.Threads[0]))*unsafe.Sizeof(Op{}))
	if unsafe.Pointer(&tr.Threads[2][0]) != next {
		t.Fatal("thread streams do not share a contiguous arena")
	}
}

func TestCompileIdempotent(t *testing.T) {
	var a Builder
	a.StoreP(0x40)
	tr := (&Trace{Name: "x", Threads: [][]Op{a.Ops()}}).Compile()
	first := &tr.Threads[0][0]
	tr.Compile()
	if tr.TotalOps() != 1 || tr.Threads[0][0].Addr != 0x40 {
		t.Fatal("second Compile corrupted the trace")
	}
	_ = first // recompiling may re-arena; contents above are what matter
}

func TestKindString(t *testing.T) {
	for k := OpCompute; k <= OpRelease; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(Kind(99).String(), "kind(") {
		t.Fatal("unknown kind should fall back")
	}
}

// TestOpIs16Bytes pins Op's packed layout: the widest field first, so an
// op takes 16 bytes in every builder chunk, arena and plan.
func TestOpIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n != 16 {
		t.Fatalf("Op takes %d bytes, want 16", n)
	}
}

// refBuilder is the plain-append builder the chunked Builder must match.
type refBuilder struct {
	ops     []Op
	pstores int
}

// emit appends the i-th op of a fixed kind rotation to both builders.
func emit(b *Builder, ref *refBuilder, i int) {
	addr := uint64(i) * 64
	var op Op
	switch i % 9 {
	case 0:
		b.Compute(uint32(i))
		op = Op{Kind: OpCompute, N: uint32(i)}
	case 1:
		b.Load(addr)
		op = Op{Kind: OpLoad, Addr: addr}
	case 2, 3:
		b.StoreP(addr)
		op = Op{Kind: OpStore, Addr: addr, Persistent: true}
		ref.pstores++
	case 4:
		b.StoreV(addr)
		op = Op{Kind: OpStore, Addr: addr}
	case 5:
		b.Ofence()
		op = Op{Kind: OpOfence}
	case 6:
		b.Dfence()
		op = Op{Kind: OpDfence}
	case 7:
		if i%2 == 0 {
			b.Acquire(addr)
			op = Op{Kind: OpAcquire, Addr: addr}
		} else {
			b.Release(addr)
			op = Op{Kind: OpRelease, Addr: addr}
		}
	case 8:
		b.NewStrand()
		op = Op{Kind: OpStrand}
	}
	ref.ops = append(ref.ops, op)
}

// TestBuilderMatchesAppend: at every chunk boundary, the chunked Builder's
// Ops, Len and PersistentStores equal a plain append builder's after each
// op, and Compile lays the same streams out in one arena.
func TestBuilderMatchesAppend(t *testing.T) {
	sizes := []int{0, 1, chunkOps - 1, chunkOps, chunkOps + 1, 2*chunkOps + 1}
	bs := make([]Builder, len(sizes))
	refs := make([]refBuilder, len(sizes))
	for k, n := range sizes {
		b, ref := &bs[k], &refs[k]
		for i := 0; i < n; i++ {
			emit(b, ref, i)
			if i+1 >= chunkOps-1 || i < 3 { // every boundary, and a short prefix
				if b.Len() != len(ref.ops) || b.PersistentStores() != ref.pstores {
					t.Fatalf("size %d after %d ops: Len %d PersistentStores %d, want %d %d",
						n, i+1, b.Len(), b.PersistentStores(), len(ref.ops), ref.pstores)
				}
			}
		}
		if !slices.Equal(b.Ops(), ref.ops) {
			t.Fatalf("size %d: Ops differ from the append builder's", n)
		}
		if b.Len() != n || b.PersistentStores() != ref.pstores {
			t.Fatalf("size %d: Len %d PersistentStores %d, want %d %d",
				n, b.Len(), b.PersistentStores(), n, ref.pstores)
		}
		if n == 0 && b.Ops() != nil {
			t.Fatal("empty builder returned a non-nil stream")
		}
	}
	tr := Compile("chunks", bs)
	if tr.Name != "chunks" || tr.NumThreads() != len(sizes) {
		t.Fatalf("Compile: name %q, %d threads", tr.Name, tr.NumThreads())
	}
	want := &Trace{Name: "chunks"}
	for _, ref := range refs {
		want.Threads = append(want.Threads, ref.ops)
	}
	want.Compile()
	for i, th := range tr.Threads {
		if !slices.Equal(th, want.Threads[i]) {
			t.Fatalf("thread %d: compiled stream differs from the append builder's", i)
		}
		if cap(th) != len(th) {
			t.Fatalf("thread %d window not capacity-clipped", i)
		}
		if i > 0 && len(th) > 0 && len(tr.Threads[i-1]) > 0 {
			prev := tr.Threads[i-1]
			if unsafe.Pointer(&th[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), uintptr(len(prev))*unsafe.Sizeof(Op{})) {
				t.Fatalf("thread %d does not follow thread %d in the arena", i, i-1)
			}
		}
	}
	// The builders are left as they were: compiling again copies the same
	// streams into a fresh arena.
	again := Compile("chunks", bs)
	if &again.Threads[1][0] == &tr.Threads[1][0] || !slices.Equal(again.Threads[5], tr.Threads[5]) {
		t.Fatal("a second Compile shared or changed the first's arena")
	}
}
