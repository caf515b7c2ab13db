package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	var a, b Builder
	a.StoreP(0x1000)
	a.Ofence()
	a.Compute(500)
	a.Load(0x2000)
	a.Dfence()
	b.Acquire(0x40)
	b.StoreV(0x3000)
	b.Release(0x40)
	tr := &Trace{Name: "rt-test", Threads: [][]Op{a.Ops(), b.Ops()}}

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.NumThreads() != 2 {
		t.Fatalf("header mismatch: %q %d", got.Name, got.NumThreads())
	}
	for ti := range tr.Threads {
		if len(got.Threads[ti]) != len(tr.Threads[ti]) {
			t.Fatalf("thread %d length mismatch", ti)
		}
		for oi := range tr.Threads[ti] {
			if got.Threads[ti][oi] != tr.Threads[ti][oi] {
				t.Fatalf("op %d/%d: %+v != %+v", ti, oi, got.Threads[ti][oi], tr.Threads[ti][oi])
			}
		}
	}
}

// TestRoundTripProperty: arbitrary op streams survive the round trip.
func TestRoundTripProperty(t *testing.T) {
	type rawOp struct {
		Kind       uint8
		Arg        uint32
		Persistent bool
	}
	prop := func(name string, raw []rawOp) bool {
		tr := &Trace{Name: name}
		var ops []Op
		for _, r := range raw {
			op := Op{Kind: Kind(r.Kind % 7), Persistent: r.Persistent}
			if op.Kind == OpCompute {
				op.N = r.Arg
			} else {
				op.Addr = uint64(r.Arg)
			}
			ops = append(ops, op)
		}
		tr.Threads = append(tr.Threads, ops)

		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Name != tr.Name || len(got.Threads[0]) != len(tr.Threads[0]) {
			return false
		}
		for i := range tr.Threads[0] {
			if got.Threads[0][i] != tr.Threads[0][i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"WRONGMAG",
		"ASAPTRC1", // truncated after magic
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) accepted garbage", c)
		}
	}
	// Unknown op kind.
	var buf bytes.Buffer
	tr := &Trace{Name: "x", Threads: [][]Op{{{Kind: OpLoad, Addr: 1}}}}
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-2] = 0x7f // corrupt the kind byte
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("corrupted kind accepted")
	}
}

// TestReadHugeOpCountShortInput: a header claiming 2^28 ops on a few bytes
// of input must fail on the missing ops without first reserving the
// gigabytes the count implies, whether or not the reader knows its length.
func TestReadHugeOpCountShortInput(t *testing.T) {
	hdr := []byte(traceMagic)
	hdr = binary.AppendUvarint(hdr, 0)     // empty name
	hdr = binary.AppendUvarint(hdr, 1)     // one thread
	hdr = binary.AppendUvarint(hdr, 1<<28) // claimed op count
	hdr = append(hdr, byte(OpStore), 0x01) // a single op
	for _, r := range []struct {
		name string
		r    func() io.Reader
	}{
		{"bytes.Reader", func() io.Reader { return bytes.NewReader(hdr) }},
		{"opaque reader", func() io.Reader { return struct{ io.Reader }{bytes.NewReader(hdr)} }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(r.r())
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: truncated trace read without error", r.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: reading a %d-byte input allocated %d bytes", r.name, len(hdr), grew)
		}
	}
}
