package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/rng"
	"asap/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden checkpoint images")

// newAt builds a machine for (model, case) and advances it to cycle `at`.
func newAt(t *testing.T, mn string, c diffCase, at uint64) *machine.Machine {
	t.Helper()
	tr, err := workload.Generate(c.wl, c.p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	m, err := machine.New(config.Default(), mn, tr)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if at > 0 {
		m.Advance(at)
	}
	return m
}

// TestImageRoundtrip is the cross-process half of the tentpole pin: for
// every model × a workload sample, a machine advanced to a randomized
// mid-run cycle, saved to a binary image, loaded back, and run to
// completion must reproduce the uninterrupted run byte-identically —
// Result, stats, and every controller's NVM image. Every cycle is
// checkpointable, so the image is taken at exactly the requested cycle.
func TestImageRoundtrip(t *testing.T) {
	for _, mn := range model.ExtendedNames() {
		for _, c := range diffWorkloads() {
			t.Run(mn+"/"+c.wl, func(t *testing.T) {
				t.Parallel()
				oracle := newAt(t, mn, c, 0)
				resA := oracle.Run(0)
				want := summarize(oracle, resA)

				r := rng.New(uint64(len(mn))*31 + c.p.Seed*17)
				cut := 1 + r.Uint64n(resA.Cycles)
				m := newAt(t, mn, c, cut)
				img, err := Save(m)
				if err != nil {
					t.Fatalf("save at cycle %d: %v", cut, err)
				}

				// The machine Save mutated must itself still finish correctly.
				compare(t, "saver-continue", want, summarize(m, m.Run(0)))

				// Two independent loads, run to completion.
				for i := 0; i < 2; i++ {
					lm, err := Load(img)
					if err != nil {
						t.Fatalf("load: %v", err)
					}
					if lm.Eng.Now() != cut {
						t.Fatalf("loaded clock %d, want %d", lm.Eng.Now(), cut)
					}
					compare(t, "load-continue", want, summarize(lm, lm.Run(0)))
				}
			})
		}
	}
}

// TestImageDeterministic pins that Save is a pure function of machine
// state: two machines advanced identically produce byte-identical images
// (map entries are sorted, ids are dense in traversal order, no addresses
// or timestamps leak into the encoding).
func TestImageDeterministic(t *testing.T) {
	c := diffCase{wl: "cceh", p: workload.Params{Threads: 2, OpsPerThread: 120, Seed: 7}}
	a, err := Save(newAt(t, model.NameASAPEP, c, 500))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Save(newAt(t, model.NameASAPEP, c, 500))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical machine states produced different images")
	}
}

// TestImageRejectsBadInput pins the acceptance requirement that corrupted,
// truncated, and wrong-version images error — never panic. Every prefix
// truncation and every single-byte corruption of a real image must be
// rejected (the digest covers the whole payload).
func TestImageRejectsBadInput(t *testing.T) {
	c := diffCase{wl: "echo", p: workload.Params{Threads: 2, OpsPerThread: 60, Seed: 5}}
	img, err := Save(newAt(t, model.NameASAPEP, c, 200))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(nil); err == nil {
		t.Fatal("Load(nil) succeeded")
	}
	if _, err := Load([]byte("ASAPCKP1")); err == nil {
		t.Fatal("magic-only image loaded")
	}
	if _, err := Load([]byte("NOTANIMG" + string(img[8:]))); err == nil {
		t.Fatal("wrong magic loaded")
	}
	// Wrong version: byte 8 is the uvarint version (1).
	bad := append([]byte(nil), img...)
	bad[8] = 99
	if _, err := Load(bad); err == nil {
		t.Fatal("wrong-version image loaded")
	}
	// Every truncation point.
	for n := 0; n < len(img); n += 1 + n/16 {
		if _, err := Load(img[:n]); err == nil {
			t.Fatalf("truncated image (%d/%d bytes) loaded", n, len(img))
		}
	}
	// Single-byte corruption at a spread of offsets.
	for off := 0; off < len(img); off += 1 + len(img)/512 {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0x40
		if _, err := Load(bad); err == nil {
			t.Fatalf("corrupted image (byte %d flipped) loaded", off)
		}
	}
}

// goldenImagePath is the committed checkpoint image: asap_ep on the cceh
// workload, saved at cycle 400. CI's golden job loads it and reruns it.
func goldenImagePath(t testing.TB) string {
	t.Helper()
	return filepath.Join("..", "..", "testdata", "golden", "checkpoint_asap_ep_cceh.ckpt")
}

func goldenMachine(t *testing.T) *machine.Machine {
	t.Helper()
	return newAt(t, model.NameASAPEP,
		diffCase{wl: "cceh", p: workload.Params{Threads: 2, OpsPerThread: 150, Seed: 42}}, 400)
}

// TestGoldenImage pins the on-disk format: the committed image must load
// and finish identically to a fresh run, and a fresh Save of the same
// state must reproduce the committed bytes exactly. A schema or format
// change fails this test; regenerate with `go test ./internal/checkpoint
// -run TestGoldenImage -update` and review the diff deliberately — old
// images stop loading when the fingerprint moves.
func TestGoldenImage(t *testing.T) {
	img, err := Save(goldenMachine(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("golden image captured at cycle 400 (%d bytes)", len(img))
	path := goldenImagePath(t)
	if *updateGolden {
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(img))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden image (regenerate with -update): %v", err)
	}
	if !bytes.Equal(img, want) {
		t.Fatalf("checkpoint image format drifted from golden (%d bytes vs %d): regenerate with -update if intended", len(img), len(want))
	}

	lm, err := Load(want)
	if err != nil {
		t.Fatalf("golden image failed to load: %v", err)
	}
	oracle := newAt(t, model.NameASAPEP,
		diffCase{wl: "cceh", p: workload.Params{Threads: 2, OpsPerThread: 150, Seed: 42}}, 0)
	compare(t, "golden", summarize(oracle, oracle.Run(0)), summarize(lm, lm.Run(0)))
}

// reseal recomputes an image's digest over its (patched) payload, so a
// test can hand Load a corrupted payload the envelope check accepts.
func reseal(img []byte) []byte {
	header := len(imageMagic) + 1
	sum := sha256.Sum256(img[header+32:])
	copy(img[header:], sum[:])
	return img
}

// settable returns a settable view of an unexported field; the test
// reaches it the way the checkpoint walker does, through its address.
func settable(f reflect.Value) reflect.Value {
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// engineSlotHead returns a settable view of the engine's wheel slot head
// for slot s.
func engineSlotHead(m *machine.Machine, s int) reflect.Value {
	return settable(reflect.ValueOf(m.Eng).Elem().FieldByName("slots").Index(s).FieldByName("head"))
}

// diffOffset returns the one payload offset where a and b differ.
func diffOffset(t *testing.T, a, b []byte) int {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("images are %d and %d bytes, want equal lengths", len(a), len(b))
	}
	off := -1
	for i := len(imageMagic) + 1 + 32; i < len(a); i++ {
		if a[i] != b[i] {
			if off >= 0 {
				t.Fatalf("images differ at payload bytes %d and %d, want one", off, i)
			}
			off = i
		}
	}
	if off < 0 {
		t.Fatal("in-memory change did not reach the image")
	}
	return off
}

// loadRejects asserts Load refuses the resealed image with the queue
// check's error, naming want.
func loadRejects(t *testing.T, bad []byte, want, what string) {
	t.Helper()
	lm, err := Load(reseal(bad))
	if err == nil || lm != nil {
		t.Fatalf("%s: Load returned (%v, %v), want an error", what, lm != nil, err)
	}
	if !strings.Contains(err.Error(), "event queue is malformed") || !strings.Contains(err.Error(), want) {
		t.Fatalf("%s: %v, want the queue check's %q error", what, err, want)
	}
}

// TestImageRejectsMalformedQueue pins that Load checks the decoded event
// queue: an image whose digest is valid but whose payload names a bogus
// wheel slot head must fail Load with an error, not load into a machine
// that panics (or dispatches out of order) in Run. The head's offset in
// the payload is found by saving the same machine twice, once with an
// empty slot's head set to 1 in memory; the byte that differs is then
// patched to each corrupt value and the image resealed.
func TestImageRejectsMalformedQueue(t *testing.T) {
	m := goldenMachine(t)
	img, err := Save(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(img); err != nil {
		t.Fatalf("clean image: %v", err)
	}
	empty := -1
	for s := 0; s < 1024 && empty < 0; s++ {
		if engineSlotHead(m, s).Int() == 0 {
			empty = s
		}
	}
	if empty < 0 {
		t.Fatal("no empty wheel slot")
	}
	engineSlotHead(m, empty).SetInt(1)
	marked, err := Save(m)
	engineSlotHead(m, empty).SetInt(0)
	if err != nil {
		t.Fatal(err)
	}
	off := diffOffset(t, img, marked)
	// Zigzag varints: 0x02 is node 1 (owned by another slot), 0x01 is -1,
	// 0x7e is 63 (past the slab's end).
	for _, b := range []byte{0x02, 0x01, 0x7e} {
		bad := append([]byte(nil), img...)
		bad[off] = b
		loadRejects(t, bad, "wheel slot", fmt.Sprintf("slot head byte %#x", b))
	}

	// An overflow event whose seq is not below the engine's counter could
	// tie a later event on (when, seq). The machine has no far-future
	// event at this cycle, so schedule one (never dispatched, so its
	// receiver, handle 0, is immaterial); its seq's
	// offset is found by saving again with the seq's low bit flipped, and
	// the uvarint there is patched to the largest value of its length.
	m.Eng.AfterOp(4096, 0, 0, 0)
	img, err = Save(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(img); err != nil {
		t.Fatalf("image with an overflow event: %v", err)
	}
	seq := settable(reflect.ValueOf(m.Eng).Elem().FieldByName("overflow").Index(0).FieldByName("seq"))
	seq.SetUint(seq.Uint() ^ 1)
	marked, err = Save(m)
	seq.SetUint(seq.Uint() ^ 1)
	if err != nil {
		t.Fatal(err)
	}
	off = diffOffset(t, img, marked)
	v, n := binary.Uvarint(img[off:])
	if v != seq.Uint() {
		t.Fatalf("uvarint at the overflow seq offset decodes to %d, want %d", v, seq.Uint())
	}
	bad := append([]byte(nil), img...)
	for i := off; i < off+n-1; i++ {
		bad[i] = 0xff
	}
	bad[off+n-1] = 0x7f
	loadRejects(t, bad, "overflow event seq", "overflow seq patched past the counter")
}

// TestImageRejectsMalformedMem pins that Load checks each controller's
// decoded NVM, WPQ, XPBuffer and recovery tables and each core's
// write-back buffer, persist buffer and epoch table, and the run state the
// trace's plan sizes (machine.Check). Each case corrupts one field of the
// controller 0 (or core 0, or lock 0) state in a valid image, reseals it
// and requires Load to fail with the check's error. Loaded unchecked,
// these images give a machine that panics on an out-of-range index,
// probes forever in a table with no empty slot, or silently loses a line.
// A field's payload offset is found by saving the machine again with the
// field's low bit flipped in memory (see diffOffset); the varint there is
// then rewritten to the bad value at the same length. A slice length
// cannot be patched so without shifting what follows it, so those cases
// save a golden machine whose slice was changed in memory instead.
func TestImageRejectsMalformedMem(t *testing.T) {
	m := goldenMachine(t)
	img, err := Save(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(img); err != nil {
		t.Fatalf("clean image: %v", err)
	}
	mc := m.MCs[0]
	nvm := reflect.ValueOf(mc.NVM).Elem()
	wpq := reflect.ValueOf(mc.WPQ).Elem()
	xp := reflect.ValueOf(mc.XP).Elem()
	firstUsed := func(slots reflect.Value) int {
		for i := 0; i < slots.Len(); i++ {
			if !slots.Index(i).IsZero() {
				return i
			}
		}
		t.Fatalf("no occupied %s slot", slots.Type())
		return -1
	}
	nvmSlot := firstUsed(nvm.FieldByName("slots"))
	xpSlot := firstUsed(xp.FieldByName("index"))
	if mc.XP.Len() < 2 {
		t.Fatalf("golden controller 0 caches %d lines; the cases need two", mc.XP.Len())
	}
	otherNode := int64(1)
	if xp.FieldByName("index").Index(xpSlot).Int() == 1 {
		otherNode = 2
	}
	rt := reflect.ValueOf(mc.RT).Elem()
	wbb := reflect.ValueOf(m.WBB(0)).Elem()
	core := modelField(m, "cores").Index(0)
	pb, et := core.FieldByName("pb").Elem(), core.FieldByName("et").Elem()
	if pb.FieldByName("entries").Len() == 0 {
		t.Fatal("golden core 0 buffers no write; the PB cases need one")
	}
	// Raising a count by two past the live records exposes two zeroed
	// slots, which hold the same line (and epoch) twice.
	twoMore := func(f reflect.Value) int64 { return f.Int() + 2 }
	machineField := func(m *machine.Machine, name string) reflect.Value {
		return settable(reflect.ValueOf(m).Elem().FieldByName(name))
	}
	if machineField(m, "locks").Len() == 0 {
		t.Fatal("the golden trace has no lock; the lock cases need one")
	}
	shorten := func(name string) func(*machine.Machine) {
		return func(m *machine.Machine) {
			f := machineField(m, name)
			f.Set(f.Slice(0, f.Len()-1))
		}
	}

	rejects := func(what string, bad []byte, want string) {
		t.Helper()
		lm, err := Load(bad)
		if err == nil || lm != nil {
			t.Fatalf("%s: Load returned (%v, %v), want an error", what, lm != nil, err)
		}
		check := "memory state is malformed"
		switch what[:3] {
		case "WBB":
			check = "write-back buffer is malformed"
		case "PB ", "ET ":
			check = "persist buffers or epoch tables are malformed"
		case "run":
			check = "run state does not fit the trace"
		}
		if !strings.Contains(err.Error(), check) || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: %v, want the %s check's %q error", what, err, check, want)
		}
	}
	for _, c := range []struct {
		what  string
		field reflect.Value
		bad   int64
		want  string
	}{
		// An undercount lets writes fill the table without growing it.
		{"NVM count", nvm.FieldByName("used"), 1, "count says"},
		{"NVM line off its probe sequence", nvm.FieldByName("slots").Index(nvmSlot).FieldByName("key"), 1 << 25, "off its probe sequence"},
		{"WPQ head past the ring", wpq.FieldByName("head"), 16, "outside its 16-slot ring"},
		{"WPQ negative head", wpq.FieldByName("head"), -1, "outside its 16-slot ring"},
		{"WPQ length past the ring", wpq.FieldByName("n"), 17, "outside its 16-slot ring"},
		// More lines than the index has slots for: inserts would fill it.
		{"XPBuffer capacity past the index", xp.FieldByName("capacity"), 8000, "index of 1024 slots"},
		{"XPBuffer self-linked LRU node", xp.FieldByName("nodes").Index(1).FieldByName("next"), 1, "LRU link"},
		{"XPBuffer LRU link past the slab", xp.FieldByName("nodes").Index(1).FieldByName("next"), 60, "LRU link"},
		{"XPBuffer index past the slab", xp.FieldByName("index").Index(xpSlot), 60, "outside the slab"},
		{"XPBuffer index naming another line's node", xp.FieldByName("index").Index(xpSlot), otherNode, "off its probe sequence"},
		{"XPBuffer index missing a line", xp.FieldByName("index").Index(xpSlot), 0, "index holds"},
		{"recovery table undo count past capacity", rt.FieldByName("nUndo"), 33, "in 32 slots"},
		{"recovery table negative delay count", rt.FieldByName("nDelay"), -1, "in 32 slots"},
		{"recovery table duplicate undo line", rt.FieldByName("nUndo"), twoMore(rt.FieldByName("nUndo")), "two undo records"},
		{"recovery table duplicate delay record", rt.FieldByName("nDelay"), twoMore(rt.FieldByName("nDelay")), "two delay records"},
		{"WBB count past capacity", wbb.FieldByName("n"), 17, "in 16 slots"},
		{"WBB duplicate parked line", wbb.FieldByName("n"), twoMore(wbb.FieldByName("n")), "parks line 0 twice"},
		{"PB inflight count off", pb.FieldByName("inflight"), twoMore(pb.FieldByName("inflight")), "inflight entries"},
		{"PB entry ID past the last issued", pb.FieldByName("nextID"), 0, "out of order"},
		{"PB entry in an unknown state", pb.FieldByName("entries").Index(0).FieldByName("State"), 5, "unknown state"},
		{"ET ring mask not its length", et.FieldByName("mask"), 6, "not a power of two"},
		{"ET window past the open epoch", et.FieldByName("oldest"), 60, "does not fit"},
		{"ET count off", et.FieldByName("count"), twoMore(et.FieldByName("count")), "tracked epochs"},
		{"run state: lock holder past the cores", machineField(m, "locks").Index(0).FieldByName("holder"), 2, "held by core 2 of 2"},
		{"run state: core id past the cores", machineField(m, "cores").Index(1).Elem().FieldByName("id"), 7, "core 1 has id 7"},
		{"run state: core before its first op", machineField(m, "cores").Index(0).Elem().FieldByName("pc"), -5, "op -5 of"},
		// A controller's ID is its receiver handle: a wrong one would
		// dispatch its events to another receiver.
		{"run state: controller id not its index", reflect.ValueOf(m.MCs[1]).Elem().FieldByName("ID"), 0, "controller 1 has id 0"},
	} {
		rejects(c.what, patchField(t, m, img, c.field, c.bad, c.what), c.want)
	}
	for _, c := range []struct {
		what   string
		change func(*machine.Machine)
		want   string
	}{
		{"run state: lock waiter past the cores", func(m *machine.Machine) {
			settable(machineField(m, "locks").Index(0).FieldByName("waiters")).Set(reflect.ValueOf([]int{0, 3}))
		}, "awaited by core 3 of 2"},
		{"run state: lock table one state short", shorten("locks"), "lock states for the plan's"},
		{"run state: PM mark bits one word short", shorten("pm"), "words of PM mark bits"},
		{"run state: NVM table sized for more lines", func(m *machine.Machine) { m.MCs[0].NVM.Reset(1000) }, "controller 0: mem: NVM table has"},
	} {
		cm := goldenMachine(t)
		c.change(cm)
		bad, err := Save(cm)
		if err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		rejects(c.what, bad, c.want)
	}
}

// patchField returns img, a valid image of m, with the integer field f of
// m's state rewritten to bad and the digest resealed. The field's payload
// offset is found by saving m again with f's low bit flipped in memory
// (see diffOffset); bad must encode to a varint of the same length as the
// field's value.
func patchField(t *testing.T, m *machine.Machine, img []byte, f reflect.Value, bad int64, what string) []byte {
	t.Helper()
	f = settable(f)
	flipLow(f)
	marked, err := Save(m)
	flipLow(f)
	if err != nil {
		t.Fatal(err)
	}
	off := diffOffset(t, img, marked)
	var enc []byte
	if f.CanInt() {
		enc = binary.AppendVarint(nil, bad)
	} else {
		enc = binary.AppendUvarint(nil, uint64(bad))
	}
	if _, n := binary.Uvarint(img[off:]); n != len(enc) {
		t.Fatalf("%s: bad value takes %d varint bytes, the field %d", what, len(enc), n)
	}
	out := append([]byte(nil), img...)
	copy(out[off:], enc)
	return reseal(out)
}

// TestImageRejectsMalformedCache pins that Load checks the decoded cache
// hierarchy (Hierarchy.Check): each case rewrites one field of a cache or
// the directory in a valid image (patchField) and requires Load to fail
// with the check's error. Loaded unchecked, these images give a machine
// whose first probe indexes past the set index or the slab, that probes
// forever in a directory with no free slot, or that misses a line it
// holds.
func TestImageRejectsMalformedCache(t *testing.T) {
	m := goldenMachine(t)
	img, err := Save(m)
	if err != nil {
		t.Fatal(err)
	}
	h := reflect.ValueOf(m.Hier).Elem()
	llc, l1, dir := h.FieldByName("llc").Elem(), h.FieldByName("l1").Index(0), h.FieldByName("dir").Elem()
	index, slots := llc.FieldByName("index"), llc.FieldByName("slots")
	// The first two sets the LLC reached, and a resident line of the first.
	var used []int
	for s := 0; s < index.Len() && len(used) < 2; s++ {
		if index.Index(s).Uint() != 0 {
			used = append(used, s)
		}
	}
	if len(used) < 2 {
		t.Fatalf("the golden LLC reached %d sets; the cases need two", len(used))
	}
	ways := int(llc.FieldByName("ways").Int())
	first := int(index.Index(used[0]).Uint()-1) * ways
	if slots.Index(first).FieldByName("line").Uint() == uint64(^uint32(0)) {
		t.Fatal("the golden LLC's first reached set holds no line in its first way")
	}
	dirSlot := -1
	for i := 0; i < dir.FieldByName("slots").Len(); i++ {
		if dir.FieldByName("slots").Index(i).FieldByName("used").Bool() {
			dirSlot = i
			break
		}
	}
	if dirSlot < 0 {
		t.Fatal("the golden directory holds no line")
	}
	for _, c := range []struct {
		what  string
		field reflect.Value
		bad   int64
		want  string
	}{
		{"LLC set count off the config", llc.FieldByName("sets"), 16383, "the config"},
		{"L1 negative reservation", l1.FieldByName("reserve"), -1, "reservation of -1"},
		{"LLC index past the slab", index.Index(used[0]), int64(slots.Len()/ways + 1), "names slab set"},
		{"LLC index naming another set's ways", index.Index(used[1]), int64(index.Index(used[0]).Uint()), "two sets name"},
		{"LLC index missing a set", index.Index(used[0]), 0, "reaches"},
		{"LLC line in another set", slots.Index(first).FieldByName("line"), int64(slots.Index(first).FieldByName("line").Uint() + 1), "not its own"},
		{"directory mask past the table", dir.FieldByName("mask"), int64(2*dir.FieldByName("slots").Len() - 1), "does not index"},
		{"directory count off", dir.FieldByName("count"), dir.FieldByName("count").Int() + 1, "count says"},
		{"directory line off its probe sequence", dir.FieldByName("slots").Index(dirSlot).FieldByName("line"),
			int64(dir.FieldByName("slots").Index(dirSlot).FieldByName("line").Uint() + 1), "off its probe sequence"},
	} {
		lm, err := Load(patchField(t, m, img, c.field, c.bad, c.what))
		if err == nil || lm != nil {
			t.Fatalf("%s: Load returned (%v, %v), want an error", c.what, lm != nil, err)
		}
		if !strings.Contains(err.Error(), "cache state is malformed") || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: %v, want the cache check's %q error", c.what, err, c.want)
		}
	}
}

// flipLow flips the low bit of an integer field in place.
func flipLow(f reflect.Value) {
	if f.CanInt() {
		f.SetInt(f.Int() ^ 1)
	} else {
		f.SetUint(f.Uint() ^ 1)
	}
}

// overlongSliceImage returns a resealed image of a one-op machine whose
// event slab claims 1<<20 elements, far more than the bytes left in the
// image. The slab's length varint is found through imgDebugMarks.
func overlongSliceImage(t *testing.T) []byte {
	t.Helper()
	m := newAt(t, model.NameASAPEP, diffCase{wl: "cceh", p: workload.Params{Threads: 1, OpsPerThread: 1, Seed: 1}}, 0)
	off := -1
	imgDebugMarks = func(o int, path string) {
		if off < 0 && path == "machine.Eng.nodes" {
			off = o
		}
	}
	img, err := Save(m)
	imgDebugMarks = nil
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		t.Fatal("no machine.Eng.nodes mark in the image")
	}
	off += len(imageMagic) + 1 + 32
	_, n := binary.Uvarint(img[off:])
	bad := append(append(append([]byte(nil), img[:off]...), binary.AppendUvarint(nil, 1<<20+1)...), img[off+n:]...)
	if len(bad)-off >= 1<<20 {
		t.Fatalf("the image leaves %d bytes after the slab length; the case needs fewer than 1<<20", len(bad)-off)
	}
	return reseal(bad)
}

// TestImageRejectsOverlongSlice pins the decoder's length bound: an image
// whose digest is intact but whose slice length exceeds the bytes left
// (every element takes at least one) must fail Load before the backing
// array is allocated. The same input is the sealed_slice_overlong seed of
// FuzzLoad.
func TestImageRejectsOverlongSlice(t *testing.T) {
	bad := overlongSliceImage(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lm, err := Load(bad)
	runtime.ReadMemStats(&after)
	if err == nil || lm != nil || !strings.Contains(err.Error(), "overruns") {
		t.Fatalf("Load returned (%v, %v), want the slice-length error", lm != nil, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rejecting the image allocated %d bytes, want under 1 MB", got)
	}
	if *updateGolden {
		path := filepath.Join("testdata", "fuzz", "FuzzLoad", "sealed_slice_overlong")
		if err := os.WriteFile(path, []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", bad)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// configPatchedImage returns a resealed image of a one-op machine whose
// embedded config has field set to v. The field's varint is found through
// imgDebugMarks; v must encode to the same length as the saved value.
func configPatchedImage(t *testing.T, field string, v int64) []byte {
	t.Helper()
	m := newAt(t, model.NameASAPEP, diffCase{wl: "cceh", p: workload.Params{Threads: 1, OpsPerThread: 1, Seed: 1}}, 0)
	off := -1
	imgDebugMarks = func(o int, path string) {
		if off < 0 && path == "config."+field {
			off = o
		}
	}
	img, err := Save(m)
	imgDebugMarks = nil
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		t.Fatalf("no config.%s mark in the image", field)
	}
	off += len(imageMagic) + 1 + 32
	enc := binary.AppendVarint(nil, v)
	if _, n := binary.Varint(img[off:]); n != len(enc) {
		t.Fatalf("config.%s: %d takes %d varint bytes, the saved value %d", field, v, len(enc), n)
	}
	bad := append([]byte(nil), img...)
	copy(bad[off:], enc)
	return reseal(bad)
}

// TestImageRejectsBadConfig pins that Load checks the embedded config
// (config.Check) before building a machine from it: a config machine.New
// cannot build, such as one with no cores or zero-way caches, fails Load
// with the check's error, not with a recovered panic. The same inputs are
// FuzzLoad seeds.
func TestImageRejectsBadConfig(t *testing.T) {
	for _, c := range []struct {
		field, seed string
		v           int64
	}{
		{"Cores", "sealed_config_zero_cores", 0},
		{"L1Ways", "sealed_config_zero_l1ways", 0},
	} {
		bad := configPatchedImage(t, c.field, c.v)
		lm, err := Load(bad)
		if err == nil || lm != nil || strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), c.field) {
			t.Fatalf("%s=%d: Load returned (%v, %v), want the config check's error", c.field, c.v, lm != nil, err)
		}
		if *updateGolden {
			path := filepath.Join("testdata", "fuzz", "FuzzLoad", c.seed)
			if err := os.WriteFile(path, []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", bad)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSaveRejectsMidRunPointers pins the encoder's pairing rule: a pointer
// slot must hold the pristine machine's pointee at the same position (or
// stay nil where it is nil), since the decoder only ever decodes into the
// fresh machine's own objects. A pointee allocated mid-run, a pointee
// shared where construction built two, and a slot cleared since
// construction all fail the encode, naming the field.
func TestSaveRejectsMidRunPointers(t *testing.T) {
	type pair struct{ A, B *int }
	x, y, z := 1, 2, 3
	for _, c := range []struct {
		name               string
		captured, pristine pair
		want               string
	}{
		{"allocated mid-run", pair{A: &x}, pair{}, "no counterpart"},
		{"shared where construction built two", pair{A: &x, B: &x}, pair{A: &y, B: &z}, "different pristine twin"},
		{"two where construction shared one", pair{A: &x, B: &y}, pair{A: &z, B: &z}, "different pristine twin"},
		{"cleared since construction", pair{B: nil}, pair{B: &z}, "cleared since construction"},
	} {
		cd := &codec{enc: true, seen: map[seenKey]unsafe.Pointer{}}
		var err error
		func() {
			defer func() {
				if cf, ok := recover().(codecFail); ok {
					err = cf.err
				}
			}()
			cd.value(unsafe.Pointer(&c.captured), unsafe.Pointer(&c.pristine), reflect.TypeOf(pair{}))
		}()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: encode error %v, want %q", c.name, err, c.want)
		}
	}
	cd := &codec{enc: true, seen: map[seenKey]unsafe.Pointer{}}
	cd.value(unsafe.Pointer(&pair{A: &x, B: &x}), unsafe.Pointer(&pair{A: &y, B: &y}), reflect.TypeOf(pair{}))
	if want := []byte{tagFirst, 2, tagSeen}; !bytes.Equal(cd.buf, want) {
		t.Errorf("construction-shared pointee encodes as % x, want % x", cd.buf, want)
	}
}

// TestImageRejectsResizedRefSlice pins the construction-length rule for
// slices whose elements hold pointers or interfaces. Save refuses such a
// slice grown since construction; and an image whose digest is intact but
// whose write-back-buffer list (a []*persist.WBB) has one element more
// than the fresh machine's, all nil, fails Load with an error. Decoded,
// those nil buffers panicked machine.Check. The image is patched: the
// list's bytes, found through imgDebugMarks, are replaced by a longer run
// of nil tags. Its payload is the sealed_wbbs_grown seed of FuzzLoadSealed.
func TestImageRejectsResizedRefSlice(t *testing.T) {
	type refs struct{ S []*int }
	x := 1
	var err error
	func() {
		defer func() {
			if cf, ok := recover().(codecFail); ok {
				err = cf.err
			}
		}()
		c := &codec{enc: true, seen: map[seenKey]unsafe.Pointer{}}
		c.value(unsafe.Pointer(&refs{S: []*int{nil, nil}}), unsafe.Pointer(&refs{S: []*int{&x}}), reflect.TypeOf(refs{}))
	}()
	if err == nil || !strings.Contains(err.Error(), "construction length") {
		t.Errorf("encoding a grown slice of pointers: %v, want the construction-length error", err)
	}

	m := smallMachine(t)
	marks := map[string]int{}
	imgDebugMarks = func(o int, path string) {
		if _, ok := marks[path]; !ok {
			marks[path] = o
		}
	}
	img, err := Save(m)
	imgDebugMarks = nil
	if err != nil {
		t.Fatal(err)
	}
	from, okFrom := marks["machine.wbbs"]
	to, okTo := marks["machine.tokenSeq"]
	if !okFrom || !okTo {
		t.Fatal("no machine.wbbs or machine.tokenSeq mark in the image")
	}
	n := len(m.Trace().Threads) + 1
	grown := append(binary.AppendUvarint(nil, uint64(n)+1), make([]byte, n)...) // n nil tags
	header := len(envelope) + 32
	bad := append(append(append([]byte(nil), img[:header+from]...), grown...), img[header+to:]...)
	lm, err := Load(reseal(bad))
	if err == nil || lm != nil || strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "construction length") {
		t.Fatalf("Load returned (%v, %v), want the construction-length error", lm != nil, err)
	}
	if *updateGolden {
		path := filepath.Join("testdata", "fuzz", "FuzzLoadSealed", "sealed_wbbs_grown")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", bad[header:])), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestImageWithLLCEvictions pins Save on a machine whose last access
// evicted from the LLC: the eviction lists the hierarchy keeps must not
// alias another slice the decoder rebuilds separately (they once did, and
// Save failed at every cycle of a small-LLC run). The restored machines
// must still finish like the uninterrupted run.
func TestImageWithLLCEvictions(t *testing.T) {
	tr, err := workload.Generate("cceh", workload.Params{Threads: 2, OpsPerThread: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.LLCSize, cfg.LLCWays = 64*32, 2 // 32 lines: nearly every fill evicts
	oracle, err := machine.New(cfg, model.NameASAPEP, tr)
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(oracle, oracle.Run(0))
	pending := false
	for _, at := range []uint64{500, 5000, 20000} {
		m, err := machine.New(cfg, model.NameASAPEP, tr)
		if err != nil {
			t.Fatal(err)
		}
		m.Advance(at)
		pending = pending || reflect.ValueOf(m.Hier).Elem().FieldByName("res").FieldByName("LLCEvicted").Len() > 0
		img, err := Save(m)
		if err != nil {
			t.Fatalf("save at cycle %d: %v", at, err)
		}
		lm, err := Load(img)
		if err != nil {
			t.Fatalf("load at cycle %d: %v", at, err)
		}
		compare(t, "load-continue", want, summarize(lm, lm.Run(0)))
	}
	if !pending {
		t.Fatal("no cut held a pending LLC eviction list")
	}
}
