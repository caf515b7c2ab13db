// Package trace defines the per-thread operation streams the machine
// replays. Workload generators (package workload) and the instrumented
// persistent data structures (package pmds) both produce traces.
package trace

import "fmt"

// Kind enumerates trace operations.
type Kind uint8

const (
	// OpCompute spends N cycles of non-memory work.
	OpCompute Kind = iota
	// OpLoad reads Addr.
	OpLoad
	// OpStore writes Addr; Persistent selects the PM persist path.
	OpStore
	// OpOfence orders earlier persistent writes before later ones.
	OpOfence
	// OpDfence additionally guarantees earlier writes are durable.
	OpDfence
	// OpAcquire takes the lock at Addr (spins if held).
	OpAcquire
	// OpRelease releases the lock at Addr.
	OpRelease
	// OpStrand begins a new strand (strand persistency): subsequent
	// writes are unordered against other strands of the same thread.
	// Models without strand support ignore it (their epoch ordering is a
	// conservative superset).
	OpStrand
)

func (k Kind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpOfence:
		return "ofence"
	case OpDfence:
		return "dfence"
	case OpAcquire:
		return "acquire"
	case OpRelease:
		return "release"
	case OpStrand:
		return "strand"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Op is one operation of one thread. The fields run from widest to
// narrowest, so an Op packs into 16 bytes.
type Op struct {
	Addr       uint64 // byte address for memory ops and locks
	N          uint32 // compute cycles for OpCompute
	Kind       Kind
	Persistent bool // store targets persistent memory
}

// Trace holds one op stream per thread.
type Trace struct {
	Name    string
	Threads [][]Op
}

// NumThreads returns the thread count.
func (t *Trace) NumThreads() int { return len(t.Threads) }

// Compile repacks the per-thread streams into one flat op arena: a single
// backing []Op with each thread's stream a three-index window into it, the
// form the package-level Compile builds directly from builders. The
// windows are capacity-clipped, so an append through one thread's slice
// can never bleed into the next thread's ops. Compiling is idempotent; it
// returns t for chaining.
func (t *Trace) Compile() *Trace {
	arena := make([]Op, 0, t.TotalOps())
	for _, th := range t.Threads {
		arena = append(arena, th...)
	}
	off := 0
	for i, th := range t.Threads {
		end := off + len(th)
		t.Threads[i] = arena[off:end:end]
		off = end
	}
	return t
}

// Compile copies one builder per thread into a compiled trace: each
// thread's stream is a capacity-clipped window of one arena, contiguous
// in replay order, so a harness replaying the trace across many models
// touches one cache-friendly slab. Each op is copied exactly once, from
// its builder chunk into the arena; the builders are left as they were.
func Compile(name string, bs []Builder) *Trace {
	n := 0
	for i := range bs {
		n += bs[i].Len()
	}
	arena := make([]Op, 0, n)
	tr := &Trace{Name: name, Threads: make([][]Op, len(bs))}
	for i := range bs {
		start := len(arena)
		arena = bs[i].appendTo(arena)
		tr.Threads[i] = arena[start:len(arena):len(arena)]
	}
	return tr
}

// TotalOps returns the op count across all threads.
func (t *Trace) TotalOps() int {
	n := 0
	for _, th := range t.Threads {
		n += len(th)
	}
	return n
}

// Counts tallies ops by kind across all threads.
func (t *Trace) Counts() map[Kind]int {
	out := make(map[Kind]int)
	for _, th := range t.Threads {
		for _, op := range th {
			out[op.Kind]++
		}
	}
	return out
}

// chunkOps is the op capacity of one Builder chunk (16 KiB).
const chunkOps = 1024

// Builder accumulates a per-thread stream with convenience emitters. Ops
// go into fixed-size chunks that are never copied or regrown, so building
// a stream of n ops allocates n ops rounded up to a chunk, not the
// doubling garbage of one growing slice.
type Builder struct {
	full    [][]Op // filled chunks, chunkOps ops each, in order
	cur     []Op   // the chunk being filled
	pstores int
}

// add appends op, starting a new chunk when the current one is full.
func (b *Builder) add(op Op) {
	if len(b.cur) == cap(b.cur) {
		if b.cur != nil {
			b.full = append(b.full, b.cur)
		}
		b.cur = make([]Op, 0, chunkOps)
	}
	b.cur = append(b.cur, op)
}

// appendTo appends the accumulated stream to dst.
func (b *Builder) appendTo(dst []Op) []Op {
	for _, c := range b.full {
		dst = append(dst, c...)
	}
	return append(dst, b.cur...)
}

// Compute appends n cycles of computation.
func (b *Builder) Compute(n uint32) { b.add(Op{Kind: OpCompute, N: n}) }

// Load appends a load of addr.
func (b *Builder) Load(addr uint64) { b.add(Op{Kind: OpLoad, Addr: addr}) }

// StoreP appends a persistent store to addr.
func (b *Builder) StoreP(addr uint64) {
	b.add(Op{Kind: OpStore, Addr: addr, Persistent: true})
	b.pstores++
}

// StoreV appends a volatile store to addr.
func (b *Builder) StoreV(addr uint64) { b.add(Op{Kind: OpStore, Addr: addr}) }

// Ofence / Dfence append persist barriers.
func (b *Builder) Ofence() { b.add(Op{Kind: OpOfence}) }
func (b *Builder) Dfence() { b.add(Op{Kind: OpDfence}) }

// Acquire / Release append lock operations on lock address addr.
func (b *Builder) Acquire(addr uint64) { b.add(Op{Kind: OpAcquire, Addr: addr}) }
func (b *Builder) Release(addr uint64) { b.add(Op{Kind: OpRelease, Addr: addr}) }

// NewStrand appends a strand boundary (strand persistency).
func (b *Builder) NewStrand() { b.add(Op{Kind: OpStrand}) }

// Ops returns the accumulated stream: the builder's only chunk, or a
// contiguous copy once the stream spans several. Compile builds a trace
// without the copy.
func (b *Builder) Ops() []Op {
	if len(b.full) == 0 {
		return b.cur
	}
	return b.appendTo(make([]Op, 0, b.Len()))
}

// Len returns the number of accumulated ops.
func (b *Builder) Len() int { return len(b.full)*chunkOps + len(b.cur) }

// PersistentStores returns the number of persistent stores accumulated —
// the same sequence numbering the machine's token origins use.
func (b *Builder) PersistentStores() int { return b.pstores }
