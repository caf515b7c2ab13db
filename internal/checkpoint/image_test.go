package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
// Result, stats, and every controller's NVM image. Models that drive
// flush loops through engine closures save at the next quiescent cycle.
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
				img, at, err := SaveNextQuiescent(m, resA.Cycles)
				if err != nil {
					t.Fatalf("save at cycle %d: %v", cut, err)
				}
				if at < cut {
					t.Fatalf("saved at %d, before requested cycle %d", at, cut)
				}
				if gotCycle, err := ImageCycle(img); err != nil || gotCycle != at {
					t.Fatalf("ImageCycle = %d, %v; want %d", gotCycle, err, at)
				}

				// The machine Save mutated must itself still finish correctly.
				compare(t, "saver-continue", want, summarize(m, m.Run(0)))

				// Two independent loads, run to completion.
				for i := 0; i < 2; i++ {
					lm, err := Load(img)
					if err != nil {
						t.Fatalf("load: %v", err)
					}
					if lm.Eng.Now() != at {
						t.Fatalf("loaded clock %d, want %d", lm.Eng.Now(), at)
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
	a, atA, err := SaveNextQuiescent(newAt(t, model.NameASAPEP, c, 500), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	b, atB, err := SaveNextQuiescent(newAt(t, model.NameASAPEP, c, 500), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if atA != atB {
		t.Fatalf("quiescence search diverged: %d vs %d", atA, atB)
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
	img, _, err := SaveNextQuiescent(newAt(t, model.NameASAPEP, c, 200), 1<<20)
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

// TestImageRejectsUnquiescent pins the gating contract for closure-driven
// models, and that SaveNextQuiescent reports non-quiescence when the
// search window is too small.
func TestImageRejectsUnquiescent(t *testing.T) {
	c := diffCase{wl: "cceh", p: workload.Params{Threads: 2, OpsPerThread: 200, Seed: 3}}
	m := newAt(t, model.NameHOPSRP, c, 0)
	// Find a cycle where hops_rp has a closure in flight: step until Save
	// refuses, which must happen early in any run with persist traffic.
	found := false
	for i := uint64(1); i < 2000; i++ {
		m.Advance(i)
		if _, err := Save(m); err != nil {
			if !errors.Is(err, ErrNotQuiescent) {
				t.Fatalf("unexpected save error: %v", err)
			}
			if _, _, err := SaveNextQuiescent(newAt(t, model.NameHOPSRP, c, i), 0); !errors.Is(err, ErrNotQuiescent) {
				t.Fatalf("zero-window search: got %v, want ErrNotQuiescent", err)
			}
			found = true
			break
		}
	}
	if !found {
		t.Skip("hops_rp never left quiescence on this workload")
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
	img, at, err := SaveNextQuiescent(goldenMachine(t), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("golden image captured at cycle %d (%d bytes)", at, len(img))
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
	img, _, err := SaveNextQuiescent(m, 1<<20)
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
	// event at this cycle, so schedule one (never dispatched); its seq's
	// offset is found by saving again with the seq's low bit flipped, and
	// the uvarint there is patched to the largest value of its length.
	m.Eng.AfterOp(4096, m, 0, 0)
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
// decoded NVM, WPQ and XPBuffer tables. Each case corrupts one field of
// the controller 0 state in a valid image, reseals it and requires Load to
// fail with the memory check's error. Loaded unchecked, these images give
// a machine that panics on an out-of-range index, probes forever in a
// table with no empty slot, or silently loses a line. A field's payload
// offset is found by saving the machine again with the field's low bit
// flipped in memory (see diffOffset); the varint there is then rewritten
// to the bad value at the same length.
func TestImageRejectsMalformedMem(t *testing.T) {
	m := goldenMachine(t)
	img, _, err := SaveNextQuiescent(m, 1<<20)
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
	} {
		f := settable(c.field)
		flipLow(f)
		marked, err := Save(m)
		flipLow(f)
		if err != nil {
			t.Fatal(err)
		}
		off := diffOffset(t, img, marked)
		bad := append([]byte(nil), img...)
		var enc []byte
		if f.CanInt() {
			enc = binary.AppendVarint(nil, c.bad)
		} else {
			enc = binary.AppendUvarint(nil, uint64(c.bad))
		}
		if _, n := binary.Uvarint(img[off:]); n != len(enc) {
			t.Fatalf("%s: bad value takes %d varint bytes, the field %d", c.what, len(enc), n)
		}
		copy(bad[off:], enc)
		lm, err := Load(reseal(bad))
		if err == nil || lm != nil {
			t.Fatalf("%s: Load returned (%v, %v), want an error", c.what, lm != nil, err)
		}
		if !strings.Contains(err.Error(), "memory state is malformed") || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: %v, want the memory check's %q error", c.what, err, c.want)
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
