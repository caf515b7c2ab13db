package checkpoint

// The state walker: a reflection-driven deep traversal of the machine's
// object graph that records everything needed to put the graph back into a
// captured state, byte for byte, without the machine knowing it is being
// snapshotted.
//
// The traversal decomposes state into restore actions:
//
//   - POD regions and POD slice contents (no pointers or interfaces
//     anywhere inside — the bulk of machine state: cache arrays, the
//     event queue, ledger slabs, the memory controllers' NVM, WPQ,
//     XPBuffer and recovery-table slabs, the write-back buffers) are
//     captured into one shared byte arena and restored with plain
//     memmoves. This is the fast path that makes a campaign's thousand
//     rewinds affordable.
//   - non-POD pointees are captured as typed shallow copies (reflect.Set —
//     a typedmemmove with proper write barriers). Restoring the copy puts
//     back every scalar, every pointer (identity — the graph keeps its
//     original objects), and every slice header.
//   - slice contents are copied back into the original backing array,
//     preserving aliasing (two slices sharing a backing array keep sharing
//     it after restore).
//
// Machine state holds no maps and no channels, and the walk rejects both
// with a panic: neither has contents a memmove can put back.
//
// Restore order is regions, then slice contents. Slice content
// destinations are the capture-time data pointers, which the captured
// headers keep alive, so the passes never depend on each other beyond that.
//
// A walker lives as long as its Checkpoint, and each capture after the
// first (Checkpoint.Recapture) refills the previous capture's storage —
// arena, action lists, shadows, slice copies — instead of allocating new
// (see capture), so a checkpoint moved forward through a run allocates
// nothing once its storage has grown to fit.
//
// Unexported fields are reached through unsafe.Pointer arithmetic
// (reflect.NewAt over base+offset), which sidesteps reflect's read-only
// flag; the machine graph is a single-goroutine object tree, so the walk
// races nothing as long as the machine is not mid-Run.

import (
	"fmt"
	"maps"
	"reflect"
	"sync"
	"unsafe"

	"asap/internal/obs"
	"asap/internal/trace"
)

// rawRestore is one memmove: n bytes of the arena (at off) back to dst.
// Only pointer-free bytes ever take this path, so the untyped writes can
// never hide a pointer from the garbage collector.
type rawRestore struct {
	dst unsafe.Pointer
	// hdr is the header of the POD slice whose contents these are, nil
	// for a POD region. Every POD slice the walk reaches gets an entry,
	// an empty one too, so a snapshot lists each slice's captured length
	// under an address that stays put when the slice moves to a new
	// backing array.
	hdr unsafe.Pointer
	off int
	n   int
}

// region is one typed-captured non-POD pointee.
type region struct {
	ptr    unsafe.Pointer
	typ    reflect.Type  // pointee type
	shadow reflect.Value // *typ holding the captured copy
}

// sliceCopy is the captured contents of one non-POD slice ([0:len]).
type sliceCopy struct {
	ptr  unsafe.Pointer // address of the slice header
	typ  reflect.Type   // slice type
	data reflect.Value  // *typ holding the contents copy, len == captured len
}

// seenKey dedups pointees. The type is part of the key: distinct views of
// one address (a struct and its first field) must not alias a region.
type seenKey struct {
	ptr unsafe.Pointer
	typ reflect.Type
}

// kept is one object's entry in a walker pool: the storage that holds the
// object's copy (a pointer to it), stamped with the capture that last
// reached the object.
type kept struct {
	gen uint64
	v   reflect.Value
}

// walker holds one snapshot: its restore actions, and the storage pools a
// recapture refills.
type walker struct {
	arena   []byte
	raw     []rawRestore
	regions []region
	slices  []sliceCopy

	// The pools map every object the last capture reached to the storage
	// of its copy: regions by seenKey (a non-POD region's shadow; they
	// double as the dedup set), non-POD slices by header address and type.
	// gen numbers the captures; an entry stamped with the current gen was
	// reached by this walk already. An object a later capture reaches
	// again refills its kept storage instead of allocating new, and an
	// object it no longer reaches is pruned when its walk ends.
	gen        uint64
	regionPool map[seenKey]*kept
	slicePool  map[seenKey]*kept
}

// Skip rules. Observability sinks accumulate history (trace spans, timeline
// rows, progress snapshots) that describes the run so far; rolling them back
// would falsify it, and nothing in the simulation reads them, so the walker
// restores the *references* (bitwise, via the enclosing region) but never
// descends into the objects. []trace.Op is the replayed program: immutable
// by contract, shared between machine and trace, and far too large to copy
// per capture. The same holds for the
// *trace.Trace that owns it, which machines built from one trace share: the
// walker keeps the machine's reference and never descends, because
// restoring it would write the shared trace (a data race between machines
// forked concurrently, even though the bytes written are equal).
var (
	tracerType   = reflect.TypeOf((*obs.Tracer)(nil)).Elem()
	progressType = reflect.TypeOf((*obs.Progress)(nil))
	timelineType = reflect.TypeOf((*obs.Timeline)(nil))
	opSliceType  = reflect.TypeOf([]trace.Op(nil))
	tracePtrType = reflect.TypeOf((*trace.Trace)(nil))
)

func skipType(t reflect.Type) bool {
	return t == tracerType || t == progressType || t == timelineType
}

// podCache memoizes isPOD per type; shared by concurrent captures.
var podCache sync.Map // reflect.Type -> bool

// isPOD reports whether t contains no pointers, slices, maps, interfaces,
// channels or strings — i.e. a bitwise copy of a value of t captures it
// completely and hides no pointer from the collector.
func isPOD(t reflect.Type) bool {
	if v, ok := podCache.Load(t); ok {
		return v.(bool)
	}
	pod := computePOD(t)
	podCache.Store(t, pod)
	return pod
}

func computePOD(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		return true
	case reflect.String:
		// String headers point into immutable bytes, but the header itself
		// contains a pointer, so raw byte restores must not carry it (the
		// arena copy would hide the pointer from the collector if the
		// destination were the only reference). Strings therefore ride the
		// typed path.
		return false
	case reflect.Array:
		return isPOD(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !isPOD(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// shallow reports whether t needs no interior walk beyond its own bytes:
// POD or strings (immutable bytes).
func shallow(t reflect.Type) bool {
	if isPOD(t) {
		return true
	}
	switch t.Kind() {
	case reflect.String:
		return true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !shallow(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Array:
		return shallow(t.Elem())
	}
	return false
}

// interiorCache memoizes interiorFields per struct type.
var interiorCache sync.Map // reflect.Type -> []reflect.StructField

// interiorFields lists the fields of struct type t that shallow does not
// cover: the only ones walkInterior must visit. Slabs of records (an epoch
// table's ring, a stats set's distributions) walk each element, so the
// per-field type tests are paid once per type, not once per element.
func interiorFields(t reflect.Type) []reflect.StructField {
	if v, ok := interiorCache.Load(t); ok {
		return v.([]reflect.StructField)
	}
	var fs []reflect.StructField
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); !shallow(f.Type) {
			fs = append(fs, f)
		}
	}
	interiorCache.Store(t, fs)
	return fs
}

// capture replaces the walker's snapshot with one of the object graph
// rooted at the t-typed value at root. It reuses the previous snapshot's
// storage: the arena and action lists keep their capacity (entries are
// cleared before truncation, so spare capacity pins nothing), and every
// object reached again refills the copy its pool entry keeps.
func (w *walker) capture(root unsafe.Pointer, t reflect.Type) {
	if w.regionPool == nil {
		w.regionPool = make(map[seenKey]*kept, 256)
		w.slicePool = make(map[seenKey]*kept)
	}
	w.gen++
	w.arena = w.arena[:0]
	clear(w.raw)
	w.raw = w.raw[:0]
	clear(w.regions)
	w.regions = w.regions[:0]
	clear(w.slices)
	w.slices = w.slices[:0]

	w.walkRegion(root, t)

	// Drop the pool entries this capture did not reach, so the pools pin
	// nothing the machine no longer holds.
	stale := func(_ seenKey, e *kept) bool { return e.gen != w.gen }
	maps.DeleteFunc(w.regionPool, stale)
	maps.DeleteFunc(w.slicePool, stale)
}

// keep returns k's entry in pool, creating it on first sight, and reports
// whether this capture already reached k; if not, it stamps the entry.
func (w *walker) keep(pool map[seenKey]*kept, k seenKey) (e *kept, again bool) {
	e = pool[k]
	if e == nil {
		e = &kept{}
		pool[k] = e
	} else if e.gen == w.gen {
		return e, true
	}
	e.gen = w.gen
	return e, false
}

// refit resizes the slice p points to (a previous capture's copy, or a
// fresh one) to length n for a capture to fill, in place: it grows like
// append when the backing array is too small, and zeroes whatever lies
// past n so no stale reference survives. It returns the resized slice.
func refit(p reflect.Value, n int) reflect.Value {
	s := p.Elem()
	for i := n; i < s.Len(); i++ {
		s.Index(i).SetZero()
	}
	if n > s.Len() {
		s.Grow(n - s.Len())
	}
	s.SetLen(n)
	return s
}

// captureRaw stages n bytes at ptr in the arena for a memmove restore:
// the contents of the POD slice whose header is at hdr, or a POD region
// if hdr is nil.
func (w *walker) captureRaw(ptr, hdr unsafe.Pointer, n int) {
	if n == 0 && hdr == nil {
		return
	}
	off := len(w.arena)
	w.arena = append(w.arena, unsafe.Slice((*byte)(ptr), n)...)
	w.raw = append(w.raw, rawRestore{dst: ptr, hdr: hdr, off: off, n: n})
}

// walkRegion captures the pointee at ptr and scans its interior.
func (w *walker) walkRegion(ptr unsafe.Pointer, t reflect.Type) {
	e, again := w.keep(w.regionPool, seenKey{ptr, t})
	if again {
		return
	}
	if isPOD(t) {
		w.captureRaw(ptr, nil, int(t.Size()))
		return
	}
	if !e.v.IsValid() {
		e.v = reflect.New(t)
	}
	e.v.Elem().Set(reflect.NewAt(t, ptr).Elem())
	w.regions = append(w.regions, region{ptr: ptr, typ: t, shadow: e.v})
	w.walkInterior(ptr, t)
}

// walkInterior scans the memory at ptr (type t, already captured by an
// enclosing copy) for state the shallow copy does not own: pointees and
// slice contents.
func (w *walker) walkInterior(ptr unsafe.Pointer, t reflect.Type) {
	switch t.Kind() {
	case reflect.Struct:
		for _, f := range interiorFields(t) {
			w.walkInterior(unsafe.Add(ptr, f.Offset), f.Type)
		}
	case reflect.Array:
		et := t.Elem()
		if shallow(et) {
			return
		}
		sz := et.Size()
		for i := 0; i < t.Len(); i++ {
			w.walkInterior(unsafe.Add(ptr, uintptr(i)*sz), et)
		}
	case reflect.Pointer:
		if skipType(t) || t == tracePtrType {
			return
		}
		p := *(*unsafe.Pointer)(ptr)
		if p == nil {
			return
		}
		w.walkRegion(p, t.Elem())
	case reflect.Slice:
		w.captureSlice(ptr, t)
	case reflect.Interface:
		if skipType(t) {
			return
		}
		v := reflect.NewAt(t, ptr).Elem()
		if v.IsNil() {
			return
		}
		switch elem := v.Elem(); elem.Kind() {
		case reflect.Pointer:
			if skipType(elem.Type()) || elem.IsNil() {
				return
			}
			w.walkRegion(elem.UnsafePointer(), elem.Type().Elem())
		case reflect.Map, reflect.Chan:
			rejectKind(elem.Type())
		}
		// A non-pointer concrete value boxed in an interface is immutable
		// through that interface (no pointer-receiver methods in its method
		// set), so restoring the interface words restores the value.
	case reflect.String:
		// String bytes are immutable; the enclosing copy owns the header.
	case reflect.Map, reflect.Chan, reflect.UnsafePointer:
		rejectKind(t)
	}
}

// rejectKind panics on state no snapshot can hold: maps and channels,
// whose contents live behind the runtime, and untyped pointers.
func rejectKind(t reflect.Type) {
	panic(fmt.Sprintf("checkpoint: cannot snapshot %v (machine state must stay map- and channel-free)", t))
}

// captureSlice records a slice's contents and scans its elements. POD
// contents go to the byte arena; everything else gets a typed copy.
func (w *walker) captureSlice(ptr unsafe.Pointer, t reflect.Type) {
	if t == opSliceType {
		return // replayed program: immutable, shared, header-only
	}
	// An empty slice needs no contents: its header (incl. nil-ness) is
	// restored by the enclosing copy.
	sv := reflect.NewAt(t, ptr).Elem()
	n := sv.Len()
	et := t.Elem()
	base := sv.UnsafePointer()
	sz := et.Size()
	if isPOD(et) {
		w.captureRaw(base, ptr, n*int(sz))
		return
	}
	e, again := w.keep(w.slicePool, seenKey{ptr, t})
	if again {
		return
	}
	if !e.v.IsValid() {
		e.v = reflect.New(t)
	}
	buf := refit(e.v, n) // kept (emptied) while the slice is empty, for when it refills
	if n == 0 {
		return
	}
	reflect.Copy(buf, sv)
	w.slices = append(w.slices, sliceCopy{ptr: ptr, typ: t, data: e.v})
	if shallow(et) {
		return
	}
	for i := 0; i < n; i++ {
		w.walkInterior(unsafe.Add(base, uintptr(i)*sz), et)
	}
}

// restore replays the captured actions, rewinding every reached object.
func (w *walker) restore() {
	for i := range w.regions {
		r := &w.regions[i]
		reflect.NewAt(r.typ, r.ptr).Elem().Set(r.shadow.Elem())
	}
	for i := range w.raw {
		r := &w.raw[i]
		copy(unsafe.Slice((*byte)(r.dst), r.n), w.arena[r.off:r.off+r.n])
	}
	for i := range w.slices {
		s := &w.slices[i]
		reflect.Copy(reflect.NewAt(s.typ, s.ptr).Elem(), s.data.Elem())
	}
}
