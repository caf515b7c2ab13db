package checkpoint

// The binary checkpoint image: Save serializes a machine's full state at
// any cycle — caches and directory, persist buffers, epoch/recovery tables,
// WPQ and controller rings, model state, trace cursors, and the engine's
// typed event queue — into a compact, versioned, checksummed byte image;
// Load rebuilds a machine that continues byte-identically.
//
// An image embeds the run recipe (config, model name, trace) next to the
// state. Load replays the deterministic construction (machine.New) and
// decodes the state over the fresh machine positionally; the machine.Plan
// derived from the trace is compiled again, not encoded, and machine.Check
// holds the decoded state to it. Save and Load drive one walk, a codec
// whose direction is set once: each leaf is one transfer call, which
// appends the value when encoding and reads, checks and stores it when
// decoding. The walk visits struct fields and slice elements in order and
// pairs each slot with its twin, the slot at the same position in a
// machine fresh from construction: a pristine machine built from the same
// plan for Save, the fresh machine itself for Load.
//
//   - Bool and integer leaves, the only ones the machine holds, encode as
//     varints (field-wise, never raw struct bytes, so padding can't leak and
//     images are byte-stable across runs).
//   - Every pointer is a construction-time edge: after machine.New no
//     pointer slot is written and no pointee allocated (records live by
//     value in slices; queued messages name components by index). So a
//     pointer or interface slot carries only what its twin decides: a tag
//     (nil, first visit of the twin's pointee with its contents following,
//     or seen again) and, for an interface, the twin's dynamic type name.
//     Save fails, naming the path, where the live slot disagrees with its
//     twin; Load requires what its fresh machine implies. A non-pointer
//     value boxed in an interface is immutable through it and keeps the
//     fresh machine's copy.
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

// Tags of pointer-shaped slots, one varint byte each.
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

// codec is one walk over machine state, encoding when enc is set and
// decoding otherwise.
type codec struct {
	enc bool
	buf []byte // the payload: Save appends to it, Load reads it from pos
	pos int
	// seen maps every visited pointee to its twin and back. A live machine
	// and its pristine twin share no address; a Load pointee is its own twin.
	seen  map[seenKey]unsafe.Pointer
	spans []memSpan
	path  []string
}

func (c *codec) dir() string {
	if c.enc {
		return "encode"
	}
	return "decode"
}

func (c *codec) fail(format string, args ...any) {
	panic(codecFail{fmt.Errorf("checkpoint: %s %s: %s", c.dir(), strings.Join(c.path, "."), fmt.Sprintf(format, args...))})
}

// imgDebugMarks, when non-nil, receives a (buffer offset, path) mark as the
// encoder descends — a test-only hook for attributing image bytes.
var imgDebugMarks func(off int, path string)

// push/pop keep a human-readable location for error messages; the codec
// is the cold path, so the bookkeeping is free where it matters.
func (c *codec) push(seg string) {
	c.path = append(c.path, seg)
	if c.enc && imgDebugMarks != nil {
		imgDebugMarks(len(c.buf), strings.Join(c.path, "."))
	}
}

func (c *codec) pop() { c.path = c.path[:len(c.path)-1] }

// --- transfer calls: Save appends *x, Load reads the next value into *x ---

func (c *codec) uvarint(x *uint64) {
	if c.enc {
		c.buf = binary.AppendUvarint(c.buf, *x)
		return
	}
	v, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		c.fail("bad varint")
	}
	c.pos += n
	*x = v
}

func (c *codec) varint(x *int64) {
	u := uint64(*x)<<1 ^ uint64(*x>>63) // zigzag
	c.uvarint(&u)
	*x = int64(u>>1) ^ -int64(u&1)
}

// str transfers a length-prefixed string of at most limit bytes.
func (c *codec) str(s *string, limit uint64) {
	n := uint64(len(*s))
	c.uvarint(&n)
	if c.enc {
		c.buf = append(c.buf, *s...)
		return
	}
	if n > limit || n > uint64(len(c.buf)-c.pos) {
		c.fail("bad length %d", n)
	}
	*s = string(c.buf[c.pos : c.pos+int(n)])
	c.pos += int(n)
}

// decoded reports whether the leaf of type t just transferred was read
// and is to be stored, and fails on one that overflows t.
func (c *codec) decoded(t reflect.Type, overflow bool) bool {
	if !c.enc && overflow {
		c.fail("%v overflow", t)
	}
	return !c.enc
}

// tag transfers the tag a slot's twin implies: Save writes it, Load reads
// the image's and requires a match.
func (c *codec) tag(want uint64, t reflect.Type) {
	got := want
	c.uvarint(&got)
	if got != want {
		c.fail("image has tag %d for a %v where the fresh machine implies %d — construction diverged", got, t, want)
	}
}

// name transfers the twin's dynamic type name the same way.
func (c *codec) name(want string) {
	got := want
	c.str(&got, maxImageStr)
	if got != want {
		c.fail("image names %s where the fresh machine holds %s", got, want)
	}
}

// --- the value walk ---

// at offsets a twin pointer; a missing twin stays missing.
func at(tw unsafe.Pointer, off uintptr) unsafe.Pointer {
	if tw == nil {
		return nil
	}
	return unsafe.Add(tw, off)
}

// value transfers the value of type t at ptr. tw is its twin: the pristine
// machine's value at the same position (Save), ptr itself (Load), or nil
// where the live graph grew past construction.
func (c *codec) value(ptr, tw unsafe.Pointer, t reflect.Type) {
	v := reflect.NewAt(t, ptr).Elem()
	switch t.Kind() {
	case reflect.Bool:
		x := uint64(0)
		if v.Bool() {
			x = 1
		}
		c.uvarint(&x)
		if c.decoded(t, x > 1) {
			v.SetBool(x == 1)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := v.Int()
		c.varint(&x)
		if c.decoded(t, v.OverflowInt(x)) {
			v.SetInt(x)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := v.Uint()
		c.uvarint(&x)
		if c.decoded(t, v.OverflowUint(x)) {
			v.SetUint(x)
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			c.push(f.Name)
			c.value(unsafe.Add(ptr, f.Offset), at(tw, f.Offset), f.Type)
			c.pop()
		}
	case reflect.Array:
		et := t.Elem()
		for i := 0; i < t.Len(); i++ {
			off := uintptr(i) * et.Size()
			c.value(unsafe.Add(ptr, off), at(tw, off), et)
		}
	case reflect.Slice:
		c.slice(v, tw)
	case reflect.Pointer:
		if skipType(t) {
			return // observability sink or the shared plan: not part of the image
		}
		p := *(*unsafe.Pointer)(ptr)
		var tp unsafe.Pointer
		if tw != nil {
			tp = *(*unsafe.Pointer)(tw)
		}
		if c.ref(p, tp, t) {
			c.value(p, tp, t.Elem())
		}
	case reflect.Interface:
		c.iface(v, tw)
	case reflect.Map, reflect.Chan:
		c.fail("cannot %s %v (machine state must stay map- and channel-free)", c.dir(), t)
	default:
		// Floats and strings among them: the machine holds none
		// (TestMachineGraphLeafKinds).
		c.fail("unsupported kind %v", t.Kind())
	}
}

// slice transfers nil-ness, length and elements. Load decodes in place
// over the fresh machine's backing when the lengths agree, so
// construction-time aliasing (two headers over one array) is reproduced,
// and makes a new backing otherwise, once the length is checked.
func (c *codec) slice(v reflect.Value, tw unsafe.Pointer) {
	n := uint64(0) // length + 1, or 0 for a nil slice
	if !v.IsNil() {
		n = uint64(v.Len()) + 1
	}
	c.uvarint(&n)
	t := v.Type()
	et, sz := t.Elem(), t.Elem().Size()
	// Elements holding pointers or interfaces keep their construction
	// count: added ones could hold only nil where components belong.
	if tw != nil && holdsRef(et) {
		if tn := uint64(reflect.NewAt(t, tw).Elem().Len()); max(n, 1)-1 != tn {
			c.fail("%d elements where a freshly built machine has %d: a slice of %v keeps its construction length", max(n, 1)-1, tn, et)
		}
	}
	switch {
	case c.enc:
	case n == 0:
		v.SetZero()
	case n-1 > maxImageElems:
		c.fail("slice length %d exceeds limit", n-1)
	case n-1 > uint64(len(c.buf)-c.pos) && sz > 0:
		// Each element of a sized type encodes to at least one byte.
		c.fail("slice length %d overruns the %d bytes left", n-1, len(c.buf)-c.pos)
	case uint64(v.Len()) != n-1 || v.IsNil():
		v.Set(reflect.MakeSlice(t, int(n-1), int(n-1)))
	}
	if n <= 1 {
		return
	}
	base := v.UnsafePointer()
	var twBase unsafe.Pointer
	if tw != nil {
		if tv := reflect.NewAt(t, tw).Elem(); tv.Len() == v.Len() {
			twBase = tv.UnsafePointer()
		}
	}
	// Backings Load rebuilds must not overlap one another.
	if sz > 0 && twBase == nil {
		c.spans = append(c.spans, memSpan{base: uintptr(base), size: uintptr(v.Len()) * sz, what: "slice " + strings.Join(c.path, ".")})
	}
	for i := uintptr(0); i < uintptr(v.Len()); i++ {
		c.value(unsafe.Add(base, i*sz), at(twBase, i*sz), et)
	}
}

// holdsRef reports whether a value of type t holds a pointer or interface
// in its own memory, not behind a slice.
func holdsRef(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface:
		return true
	case reflect.Array:
		return holdsRef(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsRef(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// ref transfers the tag of a slot of pointer type t that holds p and whose
// twin holds tw, and reports whether the pointee's contents follow. Save
// fails on a live slot the twin cannot stand for: a pointee it lacks, a
// pointee it cleared, or one matched to another twin at an earlier visit.
func (c *codec) ref(p, tw unsafe.Pointer, t reflect.Type) bool {
	et := t.Elem()
	k, tk := seenKey{p, et}, seenKey{tw, et}
	twin, seen := c.seen[k]
	_, tseen := c.seen[tk]
	switch {
	case p == nil && tw != nil:
		c.fail("%v cleared since construction", t)
	case p != nil && tw == nil:
		c.fail("%v pointee has no counterpart in a freshly built machine (only construction-time pointers are serializable)", et)
	case p == nil:
		c.tag(tagNil, t)
		return false
	case seen && twin == tw:
		c.tag(tagSeen, t)
		return false
	case seen || tseen:
		c.fail("%v pointee matches a different pristine twin than at an earlier visit", et)
	}
	c.seen[k], c.seen[tk] = tw, p
	c.tag(tagFirst, t)
	return true
}

// iface transfers interface-typed state: long-lived components referenced
// through interfaces (model, controllers, link) travel like pointers plus
// their dynamic type name; non-pointer boxed values are immutable through
// the interface and keep the fresh machine's copy.
func (c *codec) iface(v reflect.Value, tw unsafe.Pointer) {
	t := v.Type()
	if skipType(t) {
		return
	}
	elem, twin := v.Elem(), reflect.Value{} // the dynamic values; invalid when nil
	if tw != nil {
		twin = reflect.NewAt(t, tw).Elem().Elem()
	}
	switch {
	case elem.IsValid() && (elem.Kind() == reflect.Map || elem.Kind() == reflect.Chan):
		c.fail("cannot %s %v (machine state must stay map- and channel-free)", c.dir(), elem.Type())
	case !elem.IsValid() && twin.IsValid():
		c.fail("%v cleared since construction", t)
	case elem.IsValid() && (!twin.IsValid() || elem.Type() != twin.Type()):
		c.fail("%v holds %v, which has no counterpart in a freshly built machine", t, elem.Type())
	case !twin.IsValid():
		c.tag(tagNil, t)
	case twin.Kind() != reflect.Pointer:
		c.tag(tagKeep, t)
		c.name(twin.Type().String())
	case skipType(twin.Type()):
		c.tag(tagSkip, t)
	case twin.IsNil():
		c.fail("typed-nil %v inside interface", twin.Type())
	case c.ref(elem.UnsafePointer(), twin.UnsafePointer(), twin.Type()):
		c.name(twin.Type().String())
		c.value(elem.UnsafePointer(), twin.UnsafePointer(), twin.Type().Elem())
	}
}

// auditSpans rejects captures whose rebuilt slice backings overlap: two
// slices over one array that the decoder would give separate backings.
func (c *codec) auditSpans() {
	spans := c.spans
	sort.Slice(spans, func(i, j int) bool { return spans[i].base < spans[j].base })
	for i := 1; i < len(spans); i++ {
		prev, cur := &spans[i-1], &spans[i]
		if cur.base < prev.base+prev.size {
			c.fail("%s overlaps %s — aliased slices are not serializable", cur.what, prev.what)
		}
	}
}

// header is the run recipe an image carries between its schema
// fingerprint and the machine state.
type header struct {
	cycle uint64
	model string
	cfg   config.Config
	trace string // trace.Write output
}

func (c *codec) header(h *header) {
	c.uvarint(&h.cycle)
	c.str(&h.model, maxImageStr)
	c.push("config")
	cfg := unsafe.Pointer(&h.cfg) // all scalars: its own twin
	c.value(cfg, cfg, reflect.TypeOf(h.cfg))
	c.pop()
	c.str(&h.trace, math.MaxInt)
}

// machine transfers the state of m, whose twin is tw.
func (c *codec) machine(m, tw *machine.Machine) {
	mp, tp := unsafe.Pointer(m), unsafe.Pointer(tw)
	c.seen = map[seenKey]unsafe.Pointer{{mp, machineType}: tp, {tp, machineType}: mp}
	c.push("machine")
	c.value(mp, tp, machineType)
	c.pop()
}

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
	return [8]byte(h.Sum(nil))
}

var machineType = reflect.TypeOf(machine.Machine{})

// recoverInto, deferred by Save and Load, turns a codec failure or any
// other panic into *err; the other result is still nil at a panic.
func recoverInto(err *error, op string) {
	switch r := recover().(type) {
	case nil:
	case codecFail:
		*err = r.err
	default:
		*err = fmt.Errorf("checkpoint: %s panicked: %v", op, r)
	}
}

// Save serializes m into a checkpoint image at its current cycle, which may
// be any cycle between Advance boundaries — mid-stall and mid-drain
// included. The machine must be unobserved (no tracer, timeline or
// progress attached). Crash campaigns and warm-started sweeps use
// the in-memory Capture/Fork; Save is the cross-process form — archive a
// warmed machine, restore it in another process, and continue
// byte-identically.
func Save(m *machine.Machine) (img []byte, err error) {
	defer recoverInto(&err, "save")
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
	var tb strings.Builder
	if err := m.Trace().Write(&tb); err != nil {
		return nil, fmt.Errorf("checkpoint: embedding trace: %w", err)
	}
	fp := typeFingerprint(machineType, reflect.TypeOf(m.Model).Elem())
	c := &codec{enc: true, buf: fp[:]}
	c.header(&header{
		cycle: m.Eng.Now(),
		model: m.Model.Name(),
		cfg:   m.Cfg,
		trace: tb.String(),
	})
	c.machine(m, pristine)
	c.auditSpans()

	out := make([]byte, 0, len(c.buf)+8+2+32)
	out = append(out, imageMagic...)
	out = binary.AppendUvarint(out, imageVersion)
	sum := sha256.Sum256(c.buf)
	out = append(out, sum[:]...)
	return append(out, c.buf...), nil
}

// Load rebuilds a machine from a checkpoint image. The returned machine
// continues byte-identically with the one Save captured: same results,
// same stats, same NVM images (pinned by TestImageRoundtrip). Corrupted,
// truncated, or wrong-version images return errors, never panic; so does
// an image whose digest is intact but whose decoded machine fails
// machine.Check, which would otherwise load into a machine that panics,
// hangs or misorders events in Run.
func Load(img []byte) (m *machine.Machine, err error) {
	defer recoverInto(&err, "load")
	if len(img) < len(imageMagic)+1+32 {
		return nil, fmt.Errorf("checkpoint: image truncated (%d bytes)", len(img))
	}
	if string(img[:len(imageMagic)]) != imageMagic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", img[:len(imageMagic)])
	}
	ver, n := binary.Uvarint(img[len(imageMagic):])
	switch {
	case n <= 0:
		return nil, fmt.Errorf("checkpoint: bad version varint")
	case ver != imageVersion:
		return nil, fmt.Errorf("checkpoint: image version %d, this build reads version %d", ver, imageVersion)
	case len(img) < len(imageMagic)+n+32:
		return nil, fmt.Errorf("checkpoint: image truncated before digest")
	}
	digest, payload := img[len(imageMagic)+n:][:32], img[len(imageMagic)+n+32:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], digest) {
		return nil, fmt.Errorf("checkpoint: digest mismatch — image corrupted or truncated")
	}

	if len(payload) < 8 {
		return nil, fmt.Errorf("checkpoint: image truncated in fingerprint")
	}
	c := &codec{buf: payload, pos: 8}
	var h header
	c.header(&h)
	if err := h.cfg.Check(); err != nil {
		return nil, fmt.Errorf("checkpoint: image config: %w", err)
	}
	tr, err := trace.Read(strings.NewReader(h.trace))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: embedded trace: %w", err)
	}
	tr.Compile()
	fresh, err := machine.New(h.cfg, h.model, tr)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: rebuilding machine: %w", err)
	}
	if typeFingerprint(machineType, reflect.TypeOf(fresh.Model).Elem()) != [8]byte(payload) {
		return nil, fmt.Errorf("checkpoint: schema fingerprint mismatch — image was saved by a different build")
	}

	c.machine(fresh, fresh)
	switch {
	case c.pos != len(c.buf):
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after graph", len(c.buf)-c.pos)
	case fresh.Eng.Now() != h.cycle:
		return nil, fmt.Errorf("checkpoint: decoded clock %d does not match header cycle %d", fresh.Eng.Now(), h.cycle)
	}
	if err := fresh.Check(); err != nil {
		return nil, fmt.Errorf("checkpoint: decoded machine: %w", err)
	}
	return fresh, nil
}
