package checkpoint

// The state walker: a reflection-driven deep traversal of the machine's
// object graph that records everything needed to put the graph back into a
// captured state, byte for byte, without the machine knowing it is being
// snapshotted.
//
// The traversal decomposes state into restore actions:
//
//   - POD regions and POD slice contents (no pointers, maps, interfaces or
//     funcs anywhere inside — the bulk of machine state: cache arrays, the
//     event queue, ledger slabs, the memory controllers' NVM, WPQ and
//     XPBuffer slabs) are captured into one shared byte arena and
//     restored with plain memmoves. This is the fast path that makes a
//     campaign's thousand rewinds affordable.
//   - non-POD pointees are captured as typed shallow copies (reflect.Set —
//     a typedmemmove with proper write barriers). Restoring the copy puts
//     back every scalar, every pointer (identity — the graph keeps its
//     original objects), every func value (closures are shared, not
//     cloned: everything they capture is itself rolled back), and every
//     slice/map header.
//   - slice contents are copied back into the original backing array,
//     preserving aliasing (two slices sharing a backing array keep sharing
//     it after restore).
//   - map contents are restored in place (clear + refill), preserving map
//     identity; the mem.Line-keyed POD maps (the baseline model's write
//     sets, the write-back buffer) restore through native typed clones
//     instead of reflect's per-entry path.
//
// Restore order is regions, then slice contents, then maps. Slice content
// destinations are the capture-time data pointers, which the captured
// headers keep alive, so the passes never depend on each other beyond that.
//
// A walker lives as long as its Checkpoint, and each capture after the
// first (Checkpoint.Recapture) refills the previous capture's storage —
// arena, action lists, shadows, slice and map copies — instead of
// allocating new (see capture), so a checkpoint moved forward through a
// run allocates nothing once its storage has grown to fit.
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

	"asap/internal/mem"
	"asap/internal/obs"
	"asap/internal/trace"
)

// rawRestore is one memmove: n bytes of the arena (at off) back to dst.
// Only pointer-free bytes ever take this path, so the untyped writes can
// never hide a pointer from the garbage collector.
type rawRestore struct {
	dst unsafe.Pointer
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

// mapCopy is the captured contents of one map on the generic path. Values
// are restricted to pointer, POD, or slice-of-(POD|pointer) types (see
// captureMap), so the entry snapshot is shallow and pointees are rolled
// back through their own regions.
type mapCopy struct {
	ptr        unsafe.Pointer // address of the map header
	typ        reflect.Type   // map type
	keys, vals reflect.Value  // pointers to parallel slices of captured entries
	cloneVals  bool           // slice values: re-clone per restore
}

// typedMap is one map on the native fast path: a *typedSnap.
type typedMap interface{ refill() }

// typedSnap is the captured copy of the map[K]V at ptr (see
// captureTypedMap).
type typedSnap[K comparable, V any] struct {
	ptr  unsafe.Pointer
	snap map[K]V
}

// refill restores the snapshot into the live map in place.
func (s *typedSnap[K, V]) refill() {
	live := *(*map[K]V)(s.ptr)
	clear(live)
	maps.Copy(live, s.snap) //asaplint:ignore detcheck in-place map refill; entry order never reaches simulation results
}

// seenKey dedups pointees. The type is part of the key: distinct views of
// one address (a struct and its first field) must not alias a region.
type seenKey struct {
	ptr unsafe.Pointer
	typ reflect.Type
}

// kept is one object's entry in a walker pool: the storage that holds the
// object's copy, stamped with the capture that last reached the object.
type kept[V any] struct {
	gen uint64
	v   V
}

// walker holds one snapshot: its restore actions, and the storage pools a
// recapture refills.
type walker struct {
	arena   []byte
	raw     []rawRestore
	regions []region
	slices  []sliceCopy
	maps    []mapCopy
	typed   []typedMap

	// The pools map every object the last capture reached to the storage
	// of its copy: regions by seenKey (a non-POD region's shadow; they
	// double as the dedup set), non-POD slices and generic-path maps by
	// header address and type, typed fast-path maps by header address.
	// gen numbers the captures; an entry stamped with the current gen was
	// reached by this walk already. An object a later capture reaches
	// again refills its kept storage instead of allocating new, and an
	// object it no longer reaches is pruned when its walk ends.
	gen        uint64
	regionPool map[seenKey]*kept[reflect.Value]
	slicePool  map[seenKey]*kept[reflect.Value]
	mapPool    map[seenKey]*kept[mapCopy]
	typedPool  map[unsafe.Pointer]*kept[typedMap]
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

	lineTokenMapType = reflect.TypeOf(map[mem.Line]mem.Token(nil))
	lineU64MapType   = reflect.TypeOf(map[mem.Line]uint64(nil))
)

func skipType(t reflect.Type) bool {
	return t == tracerType || t == progressType || t == timelineType
}

// podCache memoizes isPOD per type; shared by concurrent captures.
var podCache sync.Map // reflect.Type -> bool

// isPOD reports whether t contains no pointers, slices, maps, interfaces,
// funcs, or channels — i.e. a bitwise copy of a value of t captures it
// completely. Strings count as POD: their bytes are immutable, so restoring
// the header restores the value.
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
// POD, strings (immutable bytes), or funcs (restored by identity).
func shallow(t reflect.Type) bool {
	if isPOD(t) {
		return true
	}
	switch t.Kind() {
	case reflect.String, reflect.Func:
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

// capture replaces the walker's snapshot with one of the object graph
// rooted at the t-typed value at root. It reuses the previous snapshot's
// storage: the arena and action lists keep their capacity (entries are
// cleared before truncation, so spare capacity pins nothing), and every
// object reached again refills the copy its pool entry keeps.
func (w *walker) capture(root unsafe.Pointer, t reflect.Type) {
	if w.regionPool == nil {
		w.regionPool = make(map[seenKey]*kept[reflect.Value], 256)
		w.slicePool = make(map[seenKey]*kept[reflect.Value])
		w.mapPool = make(map[seenKey]*kept[mapCopy])
		w.typedPool = make(map[unsafe.Pointer]*kept[typedMap])
	}
	w.gen++
	w.arena = w.arena[:0]
	clear(w.raw)
	w.raw = w.raw[:0]
	clear(w.regions)
	w.regions = w.regions[:0]
	clear(w.slices)
	w.slices = w.slices[:0]
	clear(w.maps)
	w.maps = w.maps[:0]
	clear(w.typed)
	w.typed = w.typed[:0]

	w.walkRegion(root, t)

	prune(w.regionPool, w.gen)
	prune(w.slicePool, w.gen)
	prune(w.mapPool, w.gen)
	prune(w.typedPool, w.gen)
}

// keep returns k's pool entry, creating it on first sight, and reports
// whether the capture gen already reached k; if not, it stamps the entry.
func keep[K comparable, V any](pool map[K]*kept[V], k K, gen uint64) (e *kept[V], again bool) {
	e = pool[k]
	if e == nil {
		e = &kept[V]{}
		pool[k] = e
	} else if e.gen == gen {
		return e, true
	}
	e.gen = gen
	return e, false
}

// prune drops the pool entries the capture gen did not reach, so the pools
// pin nothing the machine no longer holds.
func prune[K comparable, V any](pool map[K]*kept[V], gen uint64) {
	maps.DeleteFunc(pool, func(_ K, e *kept[V]) bool { return e.gen != gen })
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

// captureRaw stages n bytes at ptr in the arena for a memmove restore.
func (w *walker) captureRaw(ptr unsafe.Pointer, n int) {
	if n == 0 {
		return
	}
	off := len(w.arena)
	w.arena = append(w.arena, unsafe.Slice((*byte)(ptr), n)...)
	w.raw = append(w.raw, rawRestore{dst: ptr, off: off, n: n})
}

// walkRegion captures the pointee at ptr and scans its interior.
func (w *walker) walkRegion(ptr unsafe.Pointer, t reflect.Type) {
	e, again := keep(w.regionPool, seenKey{ptr, t}, w.gen)
	if again {
		return
	}
	if isPOD(t) {
		w.captureRaw(ptr, int(t.Size()))
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
// enclosing copy) for state the shallow copy does not own: pointees, slice
// contents, map contents.
func (w *walker) walkInterior(ptr unsafe.Pointer, t reflect.Type) {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if shallow(f.Type) {
				continue
			}
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
	case reflect.Map:
		w.captureMap(ptr, t)
	case reflect.Interface:
		if skipType(t) {
			return
		}
		v := reflect.NewAt(t, ptr).Elem()
		if v.IsNil() {
			return
		}
		elem := v.Elem()
		if elem.Kind() == reflect.Pointer {
			if skipType(elem.Type()) || elem.IsNil() {
				return
			}
			w.walkRegion(elem.UnsafePointer(), elem.Type().Elem())
		}
		// A non-pointer concrete value boxed in an interface is immutable
		// through that interface (no pointer-receiver methods in its method
		// set), so restoring the interface words restores the value.
	case reflect.Func, reflect.String:
		// Func values restore by identity, string bytes are immutable; the
		// enclosing copy owns both headers.
	case reflect.Chan, reflect.UnsafePointer:
		panic(fmt.Sprintf("checkpoint: cannot snapshot %v (machine state must stay channel-free)", t))
	}
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
		w.captureRaw(base, n*int(sz))
		return
	}
	e, again := keep(w.slicePool, seenKey{ptr, t}, w.gen)
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

// captureMap records a map's entries and registers pointer values'
// pointees. The mem.Line-keyed POD-valued maps restore through native
// clones; the generic reflect path covers the rest.
func (w *walker) captureMap(ptr unsafe.Pointer, t reflect.Type) {
	switch t {
	case lineTokenMapType:
		captureTypedMap[mem.Line, mem.Token](w, ptr)
		return
	case lineU64MapType:
		captureTypedMap[mem.Line, uint64](w, ptr)
		return
	}
	mv := reflect.NewAt(t, ptr).Elem()
	if mv.IsNil() {
		return
	}
	vt := t.Elem()
	ptrVal := vt.Kind() == reflect.Pointer
	sliceVal := vt.Kind() == reflect.Slice &&
		(isPOD(vt.Elem()) || vt.Elem().Kind() == reflect.Pointer)
	if !ptrVal && !sliceVal && !isPOD(vt) {
		panic(fmt.Sprintf("checkpoint: map value type %v needs deep copy; keep machine maps POD-, pointer-, or slice-valued", vt))
	}
	n := mv.Len()
	e, again := keep(w.mapPool, seenKey{ptr, t}, w.gen)
	if again {
		return
	}
	if !e.v.keys.IsValid() {
		e.v = mapCopy{ptr: ptr, typ: t, cloneVals: sliceVal,
			keys: reflect.New(reflect.SliceOf(t.Key())), vals: reflect.New(reflect.SliceOf(vt))}
	}
	mc := e.v
	keys, vals := refit(mc.keys, n), refit(mc.vals, n)
	it := mv.MapRange() //asaplint:ignore detcheck snapshot capture; entry order never reaches simulation results
	for i := 0; it.Next(); i++ {
		keys.Index(i).SetIterKey(it)
		v := vals.Index(i)
		v.SetIterValue(it)
		if sliceVal && v.Len() > 0 {
			// Detach slice values: the live slice keeps being appended to
			// (and mutated in place) after the capture, so the snapshot
			// needs its own backing array. Restore clones it again — see
			// restore — so later in-place writes through the map can never
			// reach the checkpoint's copy.
			d := reflect.MakeSlice(vt, v.Len(), v.Len())
			reflect.Copy(d, v)
			v.Set(d)
		}
	}
	w.maps = append(w.maps, mc)
	switch {
	case ptrVal:
		pt := vt.Elem()
		for i := 0; i < vals.Len(); i++ {
			pv := vals.Index(i)
			if !pv.IsNil() {
				w.walkRegion(pv.UnsafePointer(), pt)
			}
		}
	case sliceVal && vt.Elem().Kind() == reflect.Pointer:
		pt := vt.Elem().Elem()
		for i := 0; i < vals.Len(); i++ {
			sv := vals.Index(i)
			for j := 0; j < sv.Len(); j++ {
				pv := sv.Index(j)
				if !pv.IsNil() {
					w.walkRegion(pv.UnsafePointer(), pt)
				}
			}
		}
	}
}

// captureTypedMap is the native snapshot of a POD-keyed, POD-valued map:
// one clone at capture (or a refill of the previous capture's snapshot of
// the same map), one clear+copy per restore — no reflect per entry.
func captureTypedMap[K comparable, V any](w *walker, ptr unsafe.Pointer) {
	m := *(*map[K]V)(ptr)
	if m == nil {
		return
	}
	e, again := keep(w.typedPool, ptr, w.gen)
	if again {
		return
	}
	ts, ok := e.v.(*typedSnap[K, V])
	if ok {
		clear(ts.snap)
		maps.Copy(ts.snap, m) //asaplint:ignore detcheck snapshot capture; entry order never reaches simulation results
	} else {
		ts = &typedSnap[K, V]{ptr: ptr, snap: maps.Clone(m)} //asaplint:ignore detcheck snapshot capture; entry order never reaches simulation results
		e.v = ts
	}
	w.typed = append(w.typed, ts)
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
	for i := range w.maps {
		mc := &w.maps[i]
		mv := reflect.NewAt(mc.typ, mc.ptr).Elem()
		mv.Clear()
		keys, vals := mc.keys.Elem(), mc.vals.Elem()
		for j := 0; j < keys.Len(); j++ {
			v := vals.Index(j)
			if mc.cloneVals && v.Len() > 0 {
				d := reflect.MakeSlice(mc.typ.Elem(), v.Len(), v.Len())
				reflect.Copy(d, v)
				v = d
			}
			mv.SetMapIndex(keys.Index(j), v)
		}
	}
	for _, tm := range w.typed {
		tm.refill()
	}
}
