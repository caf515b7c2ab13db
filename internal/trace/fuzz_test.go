package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"asap/internal/trace"
	"asap/internal/workload"
)

// FuzzRead feeds Read arbitrary bytes, as checkpoint.Load does with the
// trace embedded in an image and asapsim -load-trace with a file. Read
// must error, never panic, and every trace it accepts must round-trip:
// Write then Read gives it back. The seeds are Write output of the
// workload generators; testdata/fuzz/FuzzRead holds further seeds every
// plain `go test` replays. Explore with
//
//	go test ./internal/trace -run '^$' -fuzz FuzzRead -fuzztime 30s
func FuzzRead(f *testing.F) {
	for _, wl := range []string{"cceh", "echo", "atlas_queue", "p_art", "bandwidth"} {
		tr, err := workload.Generate(wl, workload.Params{Threads: 2, OpsPerThread: 4, Seed: 1})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("ASAPTRC1"))
	f.Add([]byte("ASAPTRC1\x00\x01\x80\x80\x80\x80\x01"))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := trace.Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("accepted trace does not write: %v", err)
		}
		back, err := trace.Read(&buf)
		if err != nil {
			t.Fatalf("written trace does not read back: %v", err)
		}
		if back.Name != tr.Name || !reflect.DeepEqual(normalize(back.Threads), normalize(tr.Threads)) {
			t.Fatal("trace changed across Write/Read")
		}
	})
}

// normalize maps empty thread op lists to nil so DeepEqual compares
// content, not slice allocation.
func normalize(threads [][]trace.Op) [][]trace.Op {
	out := make([][]trace.Op, len(threads))
	for i, ops := range threads {
		if len(ops) > 0 {
			out[i] = ops
		}
	}
	return out
}
