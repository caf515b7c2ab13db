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
// positionally. What the machine derives from its trace, its machine.Plan,
// is not encoded: Load compiles it again from the embedded trace, and
// machine.Check holds the decoded run state to it. Both encoder and
// decoder traverse the graph with the same deterministic walk (struct
// fields in order, slice elements in order), so "the third pointer of the
// second core" means the same object on both sides:
//
//   - POD leaves encode as varints (field-wise, never raw struct bytes, so
//     padding can't leak and images are byte-stable across runs).
//   - Every pointer in the machine is a construction-time edge: after
//     machine.New no pointer slot is written and no pointee allocated
//     (records live by value in slices; queued messages name components
//     by index). So a pointer or interface slot encodes only as nil,
//     first visit (the pointee's contents follow) or seen again, and the
//     decoder decodes into the fresh machine's pointee at the same
//     position. Save co-walks a pristine machine built from the same
//     recipe and fails, naming the path, on a pointee whose pristine twin
//     at that position is missing or differs from the one an earlier
//     visit matched: state the decoder could not put back where it belongs.
//   - Interfaces additionally carry the dynamic type name, checked
//     against the fresh machine's; a non-pointer boxed value is immutable
//     through its interface and keeps the fresh machine's copy.
//   - The machine holds no func values and no maps: queued events and
//     parked continuations (sim.Cont) are pointer-free values naming a
//     receiver by its canonical index, and a map, like a channel, fails
//     the encode and the decode (its iteration order is no position).
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
	"unsafe"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/trace"
)

const (
	imageMagic   = "ASAPCKP1"
	imageVersion = 3

	// maxImageElems bounds any decoded collection length; with the digest
	// already verified this is defense in depth against resource blowups.
	maxImageElems = 1 << 27
	maxImageStr   = 1 << 20
)

// Tag bytes for pointer-shaped values.
const (
	tagNil   = 0
	tagFirst = 1 // first visit of the pointee: its contents follow
	tagSeen  = 2 // the pointee was visited before: nothing follows
	tagKeep  = 3 // opaque immutable boxed value: keep the fresh machine's
	tagSkip  = 4 // dynamically skipped (observability sink in an interface)
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
	// seen maps every visited pointee to its pristine twin and back (the
	// captured and pristine machines share no address).
	seen  map[seenKey]unsafe.Pointer
	spans []memSpan
	path  []string
}

// imgDecoder is the Load-side state.
type imgDecoder struct {
	data []byte
	pos  int
	seen map[seenKey]bool // the fresh machine's pointees decoded so far
	path []string
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

// imgDebugMarks, when non-nil, receives a (buffer offset, path) mark as the
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

// encSlice writes nil-ness, length, and elements.
func (e *imgEncoder) encSlice(ptr, pr unsafe.Pointer, t reflect.Type) {
	sv := reflect.NewAt(t, ptr).Elem()
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
	// one array) is reproduced; backings the decoder rebuilds must not
	// overlap one another.
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

// encRef writes the tag of a visit to pointee p of type et, whose pristine
// twin at this position is pp, and reports whether the contents follow.
func (e *imgEncoder) encRef(p, pp unsafe.Pointer, et reflect.Type) bool {
	if pp == nil {
		e.fail("%v pointee has no counterpart in a freshly built machine (only construction-time pointers are serializable)", et)
	}
	k, pk := seenKey{p, et}, seenKey{pp, et}
	twin, seen := e.seen[k]
	_, pseen := e.seen[pk]
	switch {
	case seen && twin == pp:
		e.byte(tagSeen)
		return false
	case seen || pseen:
		e.fail("%v pointee matches a different pristine twin than at an earlier visit", et)
	}
	e.seen[k], e.seen[pk] = pp, p
	e.byte(tagFirst)
	return true
}

// decRef consumes the tag of a visit to the fresh machine's pointee fp of
// type et and reports whether the contents follow.
func (d *imgDecoder) decRef(tag byte, fp unsafe.Pointer, et reflect.Type) bool {
	if fp == nil {
		d.fail("image has a %v pointee where the fresh machine has none — construction diverged", et)
	}
	k := seenKey{fp, et}
	switch tag {
	case tagFirst:
		if d.seen[k] {
			d.fail("first visit of a %v pointee decoded before", et)
		}
		d.seen[k] = true
		return true
	case tagSeen:
		if !d.seen[k] {
			d.fail("repeat visit of a %v pointee never decoded", et)
		}
		return false
	}
	d.fail("bad pointer tag %d", tag)
	return false
}

// nilRef writes a nil slot; filled reports whether its pristine twin is
// non-nil. A slot construction filled stays filled, so the decoder never
// writes a pointer at all.
func (e *imgEncoder) nilRef(filled bool, t reflect.Type) {
	if filled {
		e.fail("%v cleared since construction", t)
	}
	e.byte(tagNil)
}

// nilRef checks a nil slot against the fresh machine's (filled if non-nil).
func (d *imgDecoder) nilRef(filled bool, t reflect.Type) {
	if filled {
		d.fail("image has a nil %v where the fresh machine has one — construction diverged", t)
	}
}

// encPtr writes one pointer slot.
func (e *imgEncoder) encPtr(ptr, pr unsafe.Pointer, t reflect.Type) {
	if skipType(t) {
		return // observability sink or the shared plan: not part of the image
	}
	p := *(*unsafe.Pointer)(ptr)
	var pp unsafe.Pointer
	if pr != nil {
		pp = *(*unsafe.Pointer)(pr)
	}
	if p == nil {
		e.nilRef(pp != nil, t)
		return
	}
	if e.encRef(p, pp, t.Elem()) {
		e.encValue(p, pp, t.Elem())
	}
}

func (d *imgDecoder) decPtr(ptr unsafe.Pointer, t reflect.Type) {
	if skipType(t) {
		return // fresh machine's (nil) sink or compiled plan stands
	}
	fp := *(*unsafe.Pointer)(ptr)
	tag := d.byteVal()
	if tag == tagNil {
		d.nilRef(fp != nil, t)
		return
	}
	if d.decRef(tag, fp, t.Elem()) {
		d.decValue(fp, t.Elem())
	}
}

// encIface handles interface-typed state: long-lived components referenced
// through interfaces (model, controllers, link) encode like pointers plus
// their dynamic type name; non-pointer boxed values are immutable through
// the interface and keep the fresh machine's copy.
func (e *imgEncoder) encIface(ptr, pr unsafe.Pointer, t reflect.Type) {
	if skipType(t) {
		return
	}
	v := reflect.NewAt(t, ptr).Elem()
	var pv reflect.Value
	if pr != nil {
		pv = reflect.NewAt(t, pr).Elem()
	}
	if v.IsNil() {
		e.nilRef(pv.IsValid() && !pv.IsNil(), t)
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
	var pp unsafe.Pointer
	if pv.IsValid() && !pv.IsNil() && pv.Elem().Type() == elem.Type() {
		pp = pv.Elem().UnsafePointer()
	}
	et := elem.Type().Elem()
	if e.encRef(elem.UnsafePointer(), pp, et) {
		e.str(elem.Type().String())
		e.encValue(elem.UnsafePointer(), pp, et)
	}
}

func (d *imgDecoder) decIface(ptr unsafe.Pointer, t reflect.Type) {
	if skipType(t) {
		return
	}
	v := reflect.NewAt(t, ptr).Elem()
	switch tag := d.byteVal(); tag {
	case tagNil:
		d.nilRef(!v.IsNil(), t)
	case tagKeep:
		want := d.str()
		if v.IsNil() || v.Elem().Type().String() != want {
			d.fail("boxed value mismatch: image has %s, fresh machine has %v", want, v)
		}
	case tagSkip:
		// Dynamically skipped observability value; fresh machine stands.
	default:
		if v.IsNil() || v.Elem().Kind() != reflect.Pointer || v.Elem().IsNil() {
			d.fail("image has a pointee behind %v where the fresh machine has none — construction diverged", t)
		}
		fe := v.Elem()
		if !d.decRef(tag, fe.UnsafePointer(), fe.Type().Elem()) {
			return
		}
		if want := d.str(); fe.Type().String() != want {
			d.fail("interface holds %v in the fresh machine, image says %s", fe.Type(), want)
		}
		d.decValue(fe.UnsafePointer(), fe.Type().Elem())
	}
}

// auditSpans rejects captures whose rebuilt slice backings overlap: two
// slices over one array that the decoder would give separate backings.
func (e *imgEncoder) auditSpans() {
	spans := e.spans
	sort.Slice(spans, func(i, j int) bool { return spans[i].base < spans[j].base })
	for i := 1; i < len(spans); i++ {
		prev, cur := &spans[i-1], &spans[i]
		if cur.base < prev.base+prev.size {
			panic(codecFail{fmt.Errorf("checkpoint: encode: %s overlaps %s — aliased slices are not serializable", cur.what, prev.what)})
		}
	}
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
// included. The machine must be unobserved (no tracer, timeline or
// progress attached). Crash campaigns and warm-started sweeps use
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
	if m.HasObservers() {
		return nil, fmt.Errorf("checkpoint: cannot save an observed machine (detach tracer/timeline/progress first)")
	}
	if m.Trace() == nil {
		return nil, fmt.Errorf("checkpoint: machine has no trace to embed")
	}
	pristine, err := machine.NewFromPlan(m.Plan(), m.Model.Name())
	if err != nil {
		return nil, fmt.Errorf("checkpoint: rebuilding pristine machine: %w", err)
	}

	root, proot := seenKey{unsafe.Pointer(m), machineType}, seenKey{unsafe.Pointer(pristine), machineType}
	e := &imgEncoder{seen: map[seenKey]unsafe.Pointer{root: proot.ptr, proot: root.ptr}}
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
// engine's invariants (sim.Engine.CheckQueue), whose run state does not
// fit the plan compiled from its trace (machine.Check), or whose caches,
// directory, NVM, WPQ, XPBuffer, recovery-table or write-back-buffer
// records break their invariants (their Check methods), which would
// otherwise load into a machine that panics, hangs or misorders events in
// Run.
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
	if err := cfg.Check(); err != nil {
		return nil, fmt.Errorf("checkpoint: image config: %w", err)
	}
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

	d.seen = map[seenKey]bool{{unsafe.Pointer(fresh), machineType}: true}
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
	if err := fresh.Hier.Check(cfg); err != nil {
		return nil, fmt.Errorf("checkpoint: decoded cache state is malformed: %w", err)
	}
	if err := fresh.Check(); err != nil {
		return nil, fmt.Errorf("checkpoint: decoded run state does not fit the trace: %w", err)
	}
	for i, mc := range fresh.MCs {
		err := errors.Join(mc.NVM.Check(), mc.WPQ.Check(), mc.XP.Check())
		if mc.RT != nil {
			err = errors.Join(err, mc.RT.Check())
		}
		if err != nil {
			return nil, fmt.Errorf("checkpoint: decoded controller %d memory state is malformed: %w", i, err)
		}
	}
	for i := 0; i < fresh.Trace().NumThreads(); i++ {
		if err := fresh.WBB(i).Check(); err != nil {
			return nil, fmt.Errorf("checkpoint: decoded core %d write-back buffer is malformed: %w", i, err)
		}
	}
	if pm, ok := fresh.Model.(interface{ Check() error }); ok {
		if err := pm.Check(); err != nil {
			return nil, fmt.Errorf("checkpoint: decoded persist buffers or epoch tables are malformed: %w", err)
		}
	}
	return fresh, nil
}
