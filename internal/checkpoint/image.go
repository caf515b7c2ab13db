package checkpoint

// The binary checkpoint image: Save serializes a machine's full state at
// any cycle — caches and directory, persist buffers, epoch/recovery tables,
// WPQ and controller rings, model state, trace cursors, and the engine's
// typed event queue — into a compact, versioned, checksummed byte image;
// Load rebuilds a machine that continues byte-identically.
//
// The format leans on the same property the in-memory Fork does:
// machine construction is deterministic. An image embeds the full run
// recipe (config, model name, trace) next to the state, and Load replays
// construction — machine.New — to obtain a fresh machine whose object
// graph has the construction-time shape, then decodes the state over it
// positionally. Both encoder and decoder traverse the graph with the same
// deterministic walk (struct fields in order, slice elements in order), so
// "the third pointer of the second core" means the same object on both
// sides:
//
//   - POD leaves encode as varints (field-wise, never raw struct bytes, so
//     padding can't leak and images are byte-stable across runs).
//   - Pointers carry def/ref tags: the first visit of a pointee assigns
//     the next dense id and encodes its contents; later visits reference
//     the id. The decoder mirrors the numbering, reusing the fresh
//     machine's pointee where construction provides one and allocating
//     where the state grew past construction (ledger records, delay
//     records, lock states).
//   - Interfaces hold long-lived components (model, controllers, link):
//     def/ref over their pointees plus a dynamic type name check.
//   - The machine holds no func values: queued events and the models'
//     parked continuations (sim.Cont) are pointer-free values naming a
//     receiver by its canonical index, so every cycle is serializable.
//   - The machine holds no maps either (their iteration order is not a
//     position the decoder could pair): a map, like a channel, fails the
//     encode and the decode.
//
// Layout: magic, format version, then a SHA-256 digest of the remainder,
// then the digested payload: schema fingerprint (a hash of the machine's
// reflect type tree plus the model's), clock cycle, model name, config,
// trace (trace.Write), and the graph encoding. Any flipped or missing byte
// fails the digest before decoding begins, so corrupted and truncated
// images error cleanly; a schema change flips the fingerprint, so stale
// images from older builds are rejected rather than misread.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/trace"
)

const (
	imageMagic   = "ASAPCKP1"
	imageVersion = 1

	// maxImageElems bounds any decoded collection length; with the digest
	// already verified this is defense in depth against resource blowups.
	maxImageElems = 1 << 27
	maxImageStr   = 1 << 20
)

// Tag bytes for pointer-shaped values.
const (
	tagNil  = 0
	tagDef  = 1 // first visit: id assigned implicitly, contents follow
	tagRef  = 2 // later visit: uvarint id follows
	tagKeep = 3 // opaque immutable boxed value: keep the fresh machine's
	tagSkip = 4 // dynamically skipped (observability sink in an interface)
)

// codecFail carries a codec error up through the recursive walk; Save and
// Load recover it (and any other panic) into a returned error.
type codecFail struct{ err error }

// memSpan is one captured memory extent, for the aliasing audit.
type memSpan struct {
	base uintptr
	size uintptr
	what string
}

// imgEncoder is the Save-side state.
type imgEncoder struct {
	buf []byte
	// ids assigns dense ids to pointees: the spine pass (see spine below)
	// numbers construction-backed objects first, the graph pass numbers
	// the rest in stream order. emitted marks ids whose contents have been
	// written; pairs maps a captured pointee to its pristine counterpart
	// discovered by the spine pass, for positions where the local
	// co-traversal has lost the pairing (first visit via a transient path).
	ids     map[seenKey]uint64
	emitted map[uint64]bool
	pairs   map[seenKey]unsafe.Pointer
	next    uint64
	spans   []memSpan
	path    []string
}

// imgDecoder is the Load-side state.
type imgDecoder struct {
	data []byte
	pos  int
	// table maps def ids (dense from 1) to the materialized pointees; the
	// spine pass pre-fills construction-backed entries from the fresh
	// machine, the graph pass appends the rest in stream order.
	table []reflect.Value
	path  []string
}

// hasRefs reports whether values of t can contain pointer or interface
// slots the spine pass cares about. Purely type-derived, so encoder and
// decoder prune identically.
var (
	hasRefsMu   sync.Mutex
	hasRefsMemo = map[reflect.Type]bool{}
)

func hasRefs(t reflect.Type) bool {
	hasRefsMu.Lock()
	defer hasRefsMu.Unlock()
	return hasRefsLocked(t)
}

func hasRefsLocked(t reflect.Type) bool {
	if v, ok := hasRefsMemo[t]; ok {
		return v
	}
	hasRefsMemo[t] = false // break recursive types; a cycle needs a pointer, caught below
	var v bool
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface:
		v = true
	case reflect.Slice, reflect.Array:
		v = hasRefsLocked(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField() && !v; i++ {
			v = hasRefsLocked(t.Field(i).Type)
		}
	}
	hasRefsMemo[t] = v
	return v
}

func (e *imgEncoder) fail(format string, args ...any) {
	panic(codecFail{fmt.Errorf("checkpoint: encode %s: %s", strings.Join(e.path, "."), fmt.Sprintf(format, args...))})
}

func (d *imgDecoder) fail(format string, args ...any) {
	panic(codecFail{fmt.Errorf("checkpoint: decode %s: %s", strings.Join(d.path, "."), fmt.Sprintf(format, args...))})
}

// --- primitive writers/readers ---

func (e *imgEncoder) byte(b byte) { e.buf = append(e.buf, b) }

func (e *imgEncoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *imgEncoder) varint(v int64) {
	e.uvarint(uint64(v)<<1 ^ uint64(v>>63)) // zigzag
}

func (e *imgEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (d *imgDecoder) byteVal() byte {
	if d.pos >= len(d.data) {
		d.fail("truncated")
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *imgDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail("bad varint")
	}
	d.pos += n
	return v
}

func (d *imgDecoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *imgDecoder) str() string {
	n := d.uvarint()
	if n > maxImageStr || d.pos+int(n) > len(d.data) {
		d.fail("bad string length %d", n)
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

// --- value codec ---

// imgDebugMarks, when non-nil, receives (buffer offset, path) pairs as the
// encoder descends — a test-only hook for attributing image bytes.
var imgDebugMarks func(off int, path string)

// pushPath/pop keep a human-readable location for error messages; the
// codec is the cold path, so the bookkeeping is free where it matters.
func (e *imgEncoder) push(seg string) {
	e.path = append(e.path, seg)
	if imgDebugMarks != nil {
		imgDebugMarks(len(e.buf), strings.Join(e.path, "."))
	}
}
func (e *imgEncoder) pop()            { e.path = e.path[:len(e.path)-1] }
func (d *imgDecoder) push(seg string) { d.path = append(d.path, seg) }
func (d *imgDecoder) pop()            { d.path = d.path[:len(d.path)-1] }

// encValue serializes the value of type t at ptr. pr is the pristine
// machine's value at the same structural position, or nil where the
// captured graph grew past construction.
func (e *imgEncoder) encValue(ptr, pr unsafe.Pointer, t reflect.Type) {
	v := reflect.NewAt(t, ptr).Elem()
	switch t.Kind() {
	case reflect.Bool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		e.byte(b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.varint(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		e.uvarint(v.Uint())
	case reflect.Float32:
		e.uvarint(uint64(math.Float32bits(float32(v.Float()))))
	case reflect.Float64:
		e.uvarint(math.Float64bits(v.Float()))
	case reflect.String:
		e.str(v.String())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			e.push(f.Name)
			var fpr unsafe.Pointer
			if pr != nil {
				fpr = unsafe.Add(pr, f.Offset)
			}
			e.encValue(unsafe.Add(ptr, f.Offset), fpr, f.Type)
			e.pop()
		}
	case reflect.Array:
		et := t.Elem()
		sz := et.Size()
		for i := 0; i < t.Len(); i++ {
			var epr unsafe.Pointer
			if pr != nil {
				epr = unsafe.Add(pr, uintptr(i)*sz)
			}
			e.encValue(unsafe.Add(ptr, uintptr(i)*sz), epr, et)
		}
	case reflect.Slice:
		e.encSlice(ptr, pr, t)
	case reflect.Pointer:
		e.encPtr(ptr, pr, t)
	case reflect.Interface:
		e.encIface(ptr, pr, t)
	case reflect.Map, reflect.Chan:
		e.fail("cannot encode %v (machine state must stay map- and channel-free)", t)
	default:
		e.fail("unsupported kind %v", t.Kind())
	}
}

// decValue deserializes the value of type t into the fresh machine's
// memory at ptr, mirroring encValue exactly.
func (d *imgDecoder) decValue(ptr unsafe.Pointer, t reflect.Type) {
	v := reflect.NewAt(t, ptr).Elem()
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(d.byteVal() != 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := d.varint()
		if v.OverflowInt(x) {
			d.fail("int overflow")
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := d.uvarint()
		if v.OverflowUint(x) {
			d.fail("uint overflow")
		}
		v.SetUint(x)
	case reflect.Float32:
		u := d.uvarint()
		if u > math.MaxUint32 {
			d.fail("float32 overflow")
		}
		v.SetFloat(float64(math.Float32frombits(uint32(u))))
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(d.uvarint()))
	case reflect.String:
		v.SetString(d.str())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			d.push(f.Name)
			d.decValue(unsafe.Add(ptr, f.Offset), f.Type)
			d.pop()
		}
	case reflect.Array:
		et := t.Elem()
		sz := et.Size()
		for i := 0; i < t.Len(); i++ {
			d.decValue(unsafe.Add(ptr, uintptr(i)*sz), et)
		}
	case reflect.Slice:
		d.decSlice(ptr, t)
	case reflect.Pointer:
		d.decPtr(ptr, t)
	case reflect.Interface:
		d.decIface(ptr, t)
	case reflect.Map, reflect.Chan:
		d.fail("cannot decode %v (machine state must stay map- and channel-free)", t)
	default:
		d.fail("unsupported kind %v", t.Kind())
	}
}

// encSlice writes nil-ness, length, and elements. []trace.Op headers are
// windows into the immutable replayed program: only the length is written,
// and the decoder keeps the fresh machine's own window.
func (e *imgEncoder) encSlice(ptr, pr unsafe.Pointer, t reflect.Type) {
	sv := reflect.NewAt(t, ptr).Elem()
	if t == opSliceType {
		e.uvarint(uint64(sv.Len()))
		return
	}
	if sv.IsNil() {
		e.uvarint(0)
		return
	}
	n := sv.Len()
	e.uvarint(uint64(n) + 1)
	if n == 0 {
		return
	}
	et := t.Elem()
	base := sv.UnsafePointer()
	sz := et.Size()
	var prBase unsafe.Pointer
	if pr != nil {
		pv := reflect.NewAt(t, pr).Elem()
		if pv.Len() == n {
			prBase = pv.UnsafePointer()
		}
	}
	// Pristine-backed equal-length slices decode in place over the fresh
	// machine's backing, so construction-time aliasing (two headers over
	// one array) is reproduced; only backings the decoder would rebuild
	// must prove nothing else points into them.
	if sz > 0 && prBase == nil {
		e.spans = append(e.spans, memSpan{base: uintptr(base), size: uintptr(n) * sz, what: "slice " + strings.Join(e.path, ".")})
	}
	for i := 0; i < n; i++ {
		var epr unsafe.Pointer
		if prBase != nil {
			epr = unsafe.Add(prBase, uintptr(i)*sz)
		}
		e.encValue(unsafe.Add(base, uintptr(i)*sz), epr, et)
	}
}

func (d *imgDecoder) decSlice(ptr unsafe.Pointer, t reflect.Type) {
	v := reflect.NewAt(t, ptr).Elem()
	if t == opSliceType {
		if n := d.uvarint(); n != uint64(v.Len()) {
			d.fail("trace window length %d does not match the embedded trace (%d)", v.Len(), n)
		}
		return
	}
	raw := d.uvarint()
	if raw == 0 {
		v.SetZero()
		return
	}
	n := raw - 1
	if n > maxImageElems {
		d.fail("slice length %d exceeds limit", n)
	}
	// Each element of the machine's slices of sized types encodes to at
	// least one byte, so a longer slice cannot fit the bytes left: reject
	// it before allocating its backing array.
	if n > uint64(len(d.data)-d.pos) && t.Elem().Size() > 0 {
		d.fail("slice length %d overruns the %d bytes left", n, len(d.data)-d.pos)
	}
	if uint64(v.Len()) != n {
		v.Set(reflect.MakeSlice(t, int(n), int(n)))
	} else if v.IsNil() && n == 0 {
		v.Set(reflect.MakeSlice(t, 0, 0))
	}
	if n == 0 {
		return
	}
	et := t.Elem()
	base := v.UnsafePointer()
	sz := et.Size()
	for i := uint64(0); i < n; i++ {
		d.decValue(unsafe.Add(base, uintptr(i)*sz), et)
	}
}

// defID returns the id for a first-visit pointee (spine-assigned or newly
// numbered) and the pristine counterpart to co-traverse with — the local
// one when the current position has it, else the spine pairing.
func (e *imgEncoder) defID(key seenKey, localPr unsafe.Pointer) (uint64, unsafe.Pointer) {
	id, ok := e.ids[key]
	if !ok {
		e.next++
		id = e.next
		e.ids[key] = id
	}
	e.emitted[id] = true
	prp := localPr
	if prp == nil {
		prp = e.pairs[key]
	}
	// Construction-backed pointees decode into the fresh machine's own
	// object, so captured-side aliasing (pointers into the middle of the
	// machine, say) is reproduced and needs no audit span. Only mid-run
	// allocations — which the decoder rebuilds with reflect.New — must
	// prove they are not aliased.
	if prp == nil {
		if sz := key.typ.Size(); sz > 0 {
			e.spans = append(e.spans, memSpan{base: uintptr(key.ptr), size: sz, what: "pointee " + strings.Join(e.path, ".")})
		}
	}
	return id, prp
}

// encPtr writes the def/ref graph structure for one pointer.
func (e *imgEncoder) encPtr(ptr, pr unsafe.Pointer, t reflect.Type) {
	if skipType(t) {
		return // observability sink: not part of the image
	}
	p := *(*unsafe.Pointer)(ptr)
	if p == nil {
		e.byte(tagNil)
		return
	}
	et := t.Elem()
	key := seenKey{ptr: p, typ: et}
	if id, ok := e.ids[key]; ok && e.emitted[id] {
		e.byte(tagRef)
		e.uvarint(id)
		return
	}
	var localPr unsafe.Pointer
	if pr != nil {
		localPr = *(*unsafe.Pointer)(pr)
	}
	id, prp := e.defID(key, localPr)
	e.byte(tagDef)
	e.uvarint(id)
	e.encValue(p, prp, et)
}

func (d *imgDecoder) decPtr(ptr unsafe.Pointer, t reflect.Type) {
	if skipType(t) {
		return // fresh machine's (nil) sink stands
	}
	v := reflect.NewAt(t, ptr).Elem()
	switch tag := d.byteVal(); tag {
	case tagNil:
		v.SetZero()
	case tagDef:
		target := d.defTarget(d.uvarint(), v, t)
		v.Set(target)
		d.decValue(target.UnsafePointer(), t.Elem())
	case tagRef:
		id := d.uvarint()
		if id == 0 || id > uint64(len(d.table)) {
			d.fail("dangling pointer ref %d", id)
		}
		tv := d.table[id-1]
		if tv.Type() != t {
			d.fail("pointer ref %d has type %v, want %v", id, tv.Type(), t)
		}
		v.Set(tv)
	default:
		d.fail("bad pointer tag %d", tag)
	}
}

// defTarget resolves a def id to the object that carries the decoded
// contents: a spine-registered fresh pointee, the fresh machine's pointee
// at this position, or (for mid-run allocations) a new object. Non-spine
// ids must arrive in stream order — anything else is a corrupt graph.
func (d *imgDecoder) defTarget(id uint64, v reflect.Value, t reflect.Type) reflect.Value {
	if id == 0 {
		d.fail("def id 0")
	}
	if id <= uint64(len(d.table)) {
		tv := d.table[id-1]
		if tv.Type() != t {
			d.fail("def %d has type %v, want %v", id, tv.Type(), t)
		}
		return tv
	}
	if id != uint64(len(d.table))+1 {
		d.fail("def id %d out of order (table has %d)", id, len(d.table))
	}
	var target reflect.Value
	if !v.IsNil() {
		target = reflect.NewAt(t.Elem(), v.UnsafePointer())
	} else {
		target = reflect.New(t.Elem())
	}
	d.table = append(d.table, target)
	return target
}

// encIface handles interface-typed state: long-lived components referenced
// through interfaces (model, controllers, link) encode as def/ref over
// their pointees with a dynamic-type check; non-pointer boxed values are
// immutable through the interface and keep the fresh machine's copy.
func (e *imgEncoder) encIface(ptr, pr unsafe.Pointer, t reflect.Type) {
	if skipType(t) {
		return
	}
	v := reflect.NewAt(t, ptr).Elem()
	if v.IsNil() {
		e.byte(tagNil)
		return
	}
	elem := v.Elem()
	if k := elem.Kind(); k == reflect.Map || k == reflect.Chan {
		e.fail("cannot encode %v (machine state must stay map- and channel-free)", elem.Type())
	}
	if elem.Kind() != reflect.Pointer {
		e.byte(tagKeep)
		e.str(elem.Type().String())
		return
	}
	if skipType(elem.Type()) {
		e.byte(tagSkip)
		return
	}
	if elem.IsNil() {
		e.fail("typed-nil %v inside interface", elem.Type())
	}
	p := elem.UnsafePointer()
	et := elem.Type().Elem()
	key := seenKey{ptr: p, typ: et}
	if id, ok := e.ids[key]; ok && e.emitted[id] {
		e.byte(tagRef)
		e.uvarint(id)
		return
	}
	var localPr unsafe.Pointer
	if pr != nil {
		pv := reflect.NewAt(t, pr).Elem()
		if !pv.IsNil() && pv.Elem().Type() == elem.Type() {
			localPr = pv.Elem().UnsafePointer()
		}
	}
	id, prp := e.defID(key, localPr)
	e.byte(tagDef)
	e.uvarint(id)
	e.str(elem.Type().String())
	e.encValue(p, prp, et)
}

func (d *imgDecoder) decIface(ptr unsafe.Pointer, t reflect.Type) {
	if skipType(t) {
		return
	}
	v := reflect.NewAt(t, ptr).Elem()
	switch tag := d.byteVal(); tag {
	case tagNil:
		v.SetZero()
	case tagKeep:
		want := d.str()
		if v.IsNil() || v.Elem().Type().String() != want {
			d.fail("boxed value mismatch: image has %s, fresh machine has %v", want, v)
		}
	case tagSkip:
		// Dynamically skipped observability value; fresh machine stands.
	case tagDef:
		id := d.uvarint()
		want := d.str()
		var target reflect.Value
		if id >= 1 && id <= uint64(len(d.table)) {
			target = d.table[id-1]
		} else if id == uint64(len(d.table))+1 &&
			!v.IsNil() && v.Elem().Kind() == reflect.Pointer && !v.Elem().IsNil() {
			pe := v.Elem()
			target = reflect.NewAt(pe.Type().Elem(), pe.UnsafePointer())
			d.table = append(d.table, target)
		} else {
			d.fail("interface def %s (id %d) has no fresh counterpart — construction diverged", want, id)
		}
		if target.Type().String() != want {
			d.fail("interface def %d is %v, image says %s", id, target.Type(), want)
		}
		if !target.Type().Implements(t) {
			d.fail("interface def %d (%v) does not implement %v", id, target.Type(), t)
		}
		v.Set(target)
		d.decValue(target.UnsafePointer(), target.Type().Elem())
	case tagRef:
		id := d.uvarint()
		if id == 0 || id > uint64(len(d.table)) {
			d.fail("dangling interface ref %d", id)
		}
		tv := d.table[id-1]
		if !tv.Type().Implements(t) {
			d.fail("interface ref %d (%v) does not implement %v", id, tv.Type(), t)
		}
		v.Set(tv)
	default:
		d.fail("bad interface tag %d", tag)
	}
}

// auditSpans rejects captures whose pointer graph aliases memory in ways
// the positional decode cannot reproduce: a pointee inside a slice backing
// (the decoder may reallocate the backing) or overlapping pointees
// (pointers into the middle of another object). Construction-time aliasing
// is reproduced by pointee reuse; this audit catches the mid-run kind.
func (e *imgEncoder) auditSpans() {
	spans := e.spans
	sort.Slice(spans, func(i, j int) bool { return spans[i].base < spans[j].base })
	for i := 1; i < len(spans); i++ {
		prev, cur := &spans[i-1], &spans[i]
		if cur.base < prev.base+prev.size {
			panic(codecFail{fmt.Errorf("checkpoint: encode: %s overlaps %s — interior pointers are not serializable", cur.what, prev.what)})
		}
	}
}

// --- spine pass ---
//
// Objects allocated at construction (cores, model internals, controllers,
// the engine) can be reached through transient state too: an in-flight
// controller job holds its requesting core through a FlushReplier
// interface, and the graph walk may meet the core there first — a position
// where the pristine machine has nothing, so the co-traversal pairing is
// lost and the decoder would not know which fresh object carries the
// state.
//
// The spine pass fixes identity up front. Before the graph body, the
// encoder co-walks the captured and pristine machines over pointer and
// interface slots; wherever both sides are populated compatibly it assigns
// the next dense id to the captured pointee, records the pristine pairing,
// and recurses. Each slot visited emits one bit — paired or not — into the
// image, and the decoder replays the identical walk over the fresh machine,
// consuming the bits and pre-filling its id table with the fresh pointees.
// Construction determinism makes the three walks isomorphic; the bitstream
// carries the only information the decoder cannot reconstruct (which slots
// the *captured* machine had populated).

func (e *imgEncoder) spine(cp, pp unsafe.Pointer, t reflect.Type) {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !hasRefs(f.Type) {
				continue
			}
			e.spine(unsafe.Add(cp, f.Offset), unsafe.Add(pp, f.Offset), f.Type)
		}
	case reflect.Array:
		et := t.Elem()
		if !hasRefs(et) {
			return
		}
		sz := et.Size()
		for i := 0; i < t.Len(); i++ {
			e.spine(unsafe.Add(cp, uintptr(i)*sz), unsafe.Add(pp, uintptr(i)*sz), et)
		}
	case reflect.Slice:
		et := t.Elem()
		if t == opSliceType || !hasRefs(et) {
			return
		}
		cv := reflect.NewAt(t, cp).Elem()
		pv := reflect.NewAt(t, pp).Elem()
		if cv.IsNil() || pv.IsNil() || cv.Len() != pv.Len() {
			e.byte(0)
			return
		}
		e.byte(1)
		cb, pb := cv.UnsafePointer(), pv.UnsafePointer()
		sz := et.Size()
		for i := 0; i < cv.Len(); i++ {
			e.spine(unsafe.Add(cb, uintptr(i)*sz), unsafe.Add(pb, uintptr(i)*sz), et)
		}
	case reflect.Pointer:
		if skipType(t) {
			return
		}
		cptr := *(*unsafe.Pointer)(cp)
		pptr := *(*unsafe.Pointer)(pp)
		if cptr == nil || pptr == nil {
			e.byte(0)
			return
		}
		e.byte(1)
		e.spinePair(cptr, pptr, t.Elem())
	case reflect.Interface:
		if skipType(t) {
			return
		}
		cv := reflect.NewAt(t, cp).Elem()
		pv := reflect.NewAt(t, pp).Elem()
		if cv.IsNil() || pv.IsNil() {
			e.byte(0)
			return
		}
		ce, pe := cv.Elem(), pv.Elem()
		if ce.Kind() != reflect.Pointer || ce.Type() != pe.Type() ||
			skipType(ce.Type()) || ce.IsNil() || pe.IsNil() {
			e.byte(0)
			return
		}
		e.byte(1)
		e.spinePair(ce.UnsafePointer(), pe.UnsafePointer(), ce.Type().Elem())
	}
}

// spinePair registers one captured/pristine pointee pair and recurses into
// it on first registration (later sightings keep the earlier id, and the
// decoder makes the same already-seen decision on its side).
func (e *imgEncoder) spinePair(cptr, pptr unsafe.Pointer, et reflect.Type) {
	key := seenKey{ptr: cptr, typ: et}
	if _, ok := e.ids[key]; ok {
		return
	}
	e.next++
	e.ids[key] = e.next
	e.pairs[key] = pptr
	e.spine(cptr, pptr, et)
}

func (d *imgDecoder) spineWalk(fp unsafe.Pointer, t reflect.Type, seen map[seenKey]bool) {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !hasRefs(f.Type) {
				continue
			}
			d.spineWalk(unsafe.Add(fp, f.Offset), f.Type, seen)
		}
	case reflect.Array:
		et := t.Elem()
		if !hasRefs(et) {
			return
		}
		sz := et.Size()
		for i := 0; i < t.Len(); i++ {
			d.spineWalk(unsafe.Add(fp, uintptr(i)*sz), et, seen)
		}
	case reflect.Slice:
		et := t.Elem()
		if t == opSliceType || !hasRefs(et) {
			return
		}
		if d.byteVal() == 0 {
			return
		}
		fv := reflect.NewAt(t, fp).Elem()
		if fv.IsNil() {
			d.fail("spine: image pairs a slice the fresh machine does not have")
		}
		fb := fv.UnsafePointer()
		sz := et.Size()
		for i := 0; i < fv.Len(); i++ {
			d.spineWalk(unsafe.Add(fb, uintptr(i)*sz), et, seen)
		}
	case reflect.Pointer:
		if skipType(t) {
			return
		}
		if d.byteVal() == 0 {
			return
		}
		fptr := *(*unsafe.Pointer)(fp)
		if fptr == nil {
			d.fail("spine: image pairs a pointer the fresh machine does not have — construction diverged")
		}
		d.spineSeen(fptr, t.Elem(), seen)
	case reflect.Interface:
		if skipType(t) {
			return
		}
		if d.byteVal() == 0 {
			return
		}
		fv := reflect.NewAt(t, fp).Elem()
		if fv.IsNil() || fv.Elem().Kind() != reflect.Pointer || fv.Elem().IsNil() {
			d.fail("spine: image pairs an interface the fresh machine does not have — construction diverged")
		}
		fe := fv.Elem()
		d.spineSeen(fe.UnsafePointer(), fe.Type().Elem(), seen)
	}
}

func (d *imgDecoder) spineSeen(fptr unsafe.Pointer, et reflect.Type, seen map[seenKey]bool) {
	key := seenKey{ptr: fptr, typ: et}
	if seen[key] {
		return
	}
	seen[key] = true
	d.table = append(d.table, reflect.NewAt(et, fptr))
	d.spineWalk(fptr, et, seen)
}

// --- fingerprint ---

// typeFingerprint hashes the reflect type tree reachable from the given
// roots: kinds, type names, sizes, field names and order. Any change to
// the machine's state schema flips the fingerprint, so images from an
// older build are rejected with a clear error instead of misdecoded.
func typeFingerprint(roots ...reflect.Type) [8]byte {
	h := sha256.New()
	seen := make(map[reflect.Type]bool)
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		fmt.Fprintf(h, "%s|%s|%d;", t.Kind(), t.String(), t.Size())
		if seen[t] {
			return
		}
		seen[t] = true
		switch t.Kind() {
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				fmt.Fprintf(h, "f%d=%s:", i, f.Name)
				walk(f.Type)
			}
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(t.Elem())
		}
	}
	for _, t := range roots {
		walk(t)
	}
	var fp [8]byte
	copy(fp[:], h.Sum(nil))
	return fp
}

var machineType = reflect.TypeOf(machine.Machine{})

// --- Save / Load ---

// Save serializes m into a checkpoint image at its current cycle, which may
// be any cycle between Advance boundaries — mid-stall and mid-drain
// included. The machine must be unobserved (no tracer, timeline, progress
// or dispatch hook attached). Crash campaigns and warm-started sweeps use
// the in-memory Capture/Fork; Save is the cross-process form — archive a
// warmed machine, restore it in another process, and continue
// byte-identically.
func Save(m *machine.Machine) (img []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			if cf, ok := r.(codecFail); ok {
				img, err = nil, cf.err
				return
			}
			img, err = nil, fmt.Errorf("checkpoint: save panicked: %v", r)
		}
	}()
	if m.HasObservers() || m.Eng.Hooked() {
		return nil, fmt.Errorf("checkpoint: cannot save an observed machine (detach tracer/timeline/progress/dispatch hook first)")
	}
	if m.Trace() == nil {
		return nil, fmt.Errorf("checkpoint: machine has no trace to embed")
	}
	pristine, err := machine.New(m.Cfg, m.Model.Name(), m.Trace())
	if err != nil {
		return nil, fmt.Errorf("checkpoint: rebuilding pristine machine: %w", err)
	}

	e := &imgEncoder{
		ids:     make(map[seenKey]uint64, 256),
		emitted: make(map[uint64]bool, 256),
		pairs:   make(map[seenKey]unsafe.Pointer, 256),
	}
	fp := typeFingerprint(machineType, reflect.TypeOf(m.Model).Elem())
	e.buf = append(e.buf, fp[:]...)
	e.uvarint(m.Eng.Now())
	e.str(m.Model.Name())
	cfg := m.Cfg
	e.push("config")
	e.encValue(unsafe.Pointer(&cfg), nil, reflect.TypeOf(cfg))
	e.pop()
	var tb bytes.Buffer
	if err := m.Trace().Write(&tb); err != nil {
		return nil, fmt.Errorf("checkpoint: embedding trace: %w", err)
	}
	e.uvarint(uint64(tb.Len()))
	e.buf = append(e.buf, tb.Bytes()...)

	// Spine pass: pin identities of construction-backed objects (the root
	// machine is id 1), then encode the graph body over them.
	rootKey := seenKey{ptr: unsafe.Pointer(m), typ: machineType}
	e.next = 1
	e.ids[rootKey] = 1
	e.emitted[1] = true // root contents are the graph body itself
	e.pairs[rootKey] = unsafe.Pointer(pristine)
	e.push("spine")
	e.spine(unsafe.Pointer(m), unsafe.Pointer(pristine), machineType)
	e.pop()
	e.push("machine")
	e.encValue(unsafe.Pointer(m), unsafe.Pointer(pristine), machineType)
	e.pop()
	e.auditSpans()

	out := make([]byte, 0, len(e.buf)+8+2+32)
	out = append(out, imageMagic...)
	out = binary.AppendUvarint(out, imageVersion)
	sum := sha256.Sum256(e.buf)
	out = append(out, sum[:]...)
	out = append(out, e.buf...)
	return out, nil
}

// Load rebuilds a machine from a checkpoint image. The returned machine
// continues byte-identically with the one Save captured: same results,
// same stats, same NVM images (pinned by TestImageRoundtrip). Corrupted,
// truncated, or wrong-version images return errors, never panic; so does
// an image whose digest is intact but whose event queue breaks the
// engine's invariants (sim.Engine.CheckQueue) or whose NVM, WPQ,
// XPBuffer, recovery-table or write-back-buffer records break theirs
// (their Check methods), which would otherwise load into a machine that
// panics, hangs or misorders events in Run.
func Load(img []byte) (m *machine.Machine, err error) {
	defer func() {
		if r := recover(); r != nil {
			if cf, ok := r.(codecFail); ok {
				m, err = nil, cf.err
				return
			}
			m, err = nil, fmt.Errorf("checkpoint: load panicked: %v", r)
		}
	}()
	if len(img) < len(imageMagic)+1+32 {
		return nil, fmt.Errorf("checkpoint: image truncated (%d bytes)", len(img))
	}
	if string(img[:len(imageMagic)]) != imageMagic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", img[:len(imageMagic)])
	}
	rest := img[len(imageMagic):]
	ver, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("checkpoint: bad version varint")
	}
	if ver != imageVersion {
		return nil, fmt.Errorf("checkpoint: image version %d, this build reads version %d", ver, imageVersion)
	}
	rest = rest[n:]
	if len(rest) < 32 {
		return nil, fmt.Errorf("checkpoint: image truncated before digest")
	}
	want := rest[:32]
	payload := rest[32:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], want) {
		return nil, fmt.Errorf("checkpoint: digest mismatch — image corrupted or truncated")
	}

	d := &imgDecoder{data: payload}
	var fp [8]byte
	if d.pos+8 > len(d.data) {
		return nil, fmt.Errorf("checkpoint: image truncated in fingerprint")
	}
	copy(fp[:], d.data[d.pos:])
	d.pos += 8
	cycle := d.uvarint()
	modelName := d.str()
	var cfg config.Config
	d.push("config")
	d.decValue(unsafe.Pointer(&cfg), reflect.TypeOf(cfg))
	d.pop()
	tn := d.uvarint()
	if tn > uint64(len(d.data)-d.pos) {
		return nil, fmt.Errorf("checkpoint: trace block overruns image")
	}
	tr, err := trace.Read(bytes.NewReader(d.data[d.pos : d.pos+int(tn)]))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: embedded trace: %w", err)
	}
	d.pos += int(tn)
	tr.Compile()

	fresh, err := machine.New(cfg, modelName, tr)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: rebuilding machine: %w", err)
	}
	if got := typeFingerprint(machineType, reflect.TypeOf(fresh.Model).Elem()); got != fp {
		return nil, fmt.Errorf("checkpoint: schema fingerprint mismatch — image was saved by a different build")
	}

	d.table = append(d.table, reflect.ValueOf(fresh)) // id 1 = the machine
	seen := map[seenKey]bool{{ptr: unsafe.Pointer(fresh), typ: machineType}: true}
	d.push("spine")
	d.spineWalk(unsafe.Pointer(fresh), machineType, seen)
	d.pop()
	d.push("machine")
	d.decValue(unsafe.Pointer(fresh), machineType)
	d.pop()
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after graph", len(d.data)-d.pos)
	}
	if fresh.Eng.Now() != cycle {
		return nil, fmt.Errorf("checkpoint: decoded clock %d does not match header cycle %d", fresh.Eng.Now(), cycle)
	}
	if err := fresh.Eng.CheckQueue(); err != nil {
		return nil, fmt.Errorf("checkpoint: decoded event queue is malformed: %w", err)
	}
	for i, mc := range fresh.MCs {
		if mc == nil || mc.NVM == nil || mc.WPQ == nil || mc.XP == nil {
			return nil, fmt.Errorf("checkpoint: decoded controller %d lacks its memory-side state", i)
		}
		err := errors.Join(mc.NVM.Check(), mc.WPQ.Check(), mc.XP.Check())
		if mc.RT != nil {
			err = errors.Join(err, mc.RT.Check())
		}
		if err != nil {
			return nil, fmt.Errorf("checkpoint: decoded controller %d memory state is malformed: %w", i, err)
		}
	}
	for i := 0; i < fresh.Trace().NumThreads(); i++ {
		w := fresh.WBB(i)
		if w == nil {
			return nil, fmt.Errorf("checkpoint: decoded core %d lacks its write-back buffer", i)
		}
		if err := w.Check(); err != nil {
			return nil, fmt.Errorf("checkpoint: decoded core %d write-back buffer is malformed: %w", i, err)
		}
	}
	return fresh, nil
}
