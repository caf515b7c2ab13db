package checkpoint

import (
	"encoding/binary"
	"os"
	"strings"
	"testing"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/workload"
)

// FuzzLoad pins that Load answers any byte string with a machine or an
// error and never panics, not even a panic Load would recover: malformed
// images must be rejected by the envelope checks (magic, version, digest)
// and the decoder's own validation. The seeds are the committed golden
// image, truncations of it and single corruptions of each envelope field;
// testdata/fuzz/FuzzLoad holds further small inputs that every plain `go
// test` replays. Explore with
//
//	go test ./internal/checkpoint -run '^$' -fuzz FuzzLoad -fuzztime 30s
func FuzzLoad(f *testing.F) {
	img, err := os.ReadFile(goldenImagePath(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	header := len(imageMagic) + 1 + 32 // magic, version byte, digest
	for _, n := range []int{0, len(imageMagic), len(imageMagic) + 1, header - 1, header, header + 8, len(img) / 2, len(img) - 1} {
		f.Add(img[:n])
	}
	for _, off := range []int{0, len(imageMagic), len(imageMagic) + 1, header, header + 8, len(img) / 2, len(img) - 1} {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0x40
		f.Add(bad)
	}
	f.Add(append(append([]byte(nil), img...), 0))
	f.Fuzz(func(t *testing.T, img []byte) {
		m, err := Load(img)
		checkLoaded(t, m, err)
	})
}

// FuzzLoadSealed is FuzzLoad past the digest: each input is a payload that
// the target seals (magic, version, SHA-256 digest) before calling Load,
// so every mutation reaches the decoder and the post-decode checks instead
// of failing the digest. The seeds are the payload of a small image built
// here (asap_ep on cceh, 2 threads × 5 ops, saved mid-run) and single-byte
// corruptions of it; testdata/fuzz/FuzzLoadSealed holds hand-made inputs
// mutation does not reach. Explore with
//
//	go test ./internal/checkpoint -run '^$' -fuzz FuzzLoadSealed -fuzztime 60s -fuzzminimizetime 100x
//
// The payload is ~50 KB, so minimizing one new input under the default
// -fuzzminimizetime of 60 s takes that long, and executions stop counting.
func FuzzLoadSealed(f *testing.F) {
	img, err := Save(smallMachine(f))
	if err != nil {
		f.Fatal(err)
	}
	payload := img[len(envelope)+32:]
	f.Add(payload)
	for _, off := range []int{0, 8, 9, 10, 11, len(payload) / 4, len(payload) / 2, len(payload) - 2, len(payload) - 1} {
		bad := append([]byte(nil), payload...)
		bad[off] ^= 0x40
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		img := append(append(append([]byte(nil), envelope...), make([]byte, 32)...), payload...)
		m, err := Load(reseal(img))
		checkLoaded(t, m, err)
	})
}

// envelope is the image header ahead of the digest: magic and version.
var envelope = binary.AppendUvarint([]byte(imageMagic), imageVersion)

// smallMachine is asap_ep on cceh, 2 threads × 5 ops, advanced to cycle
// 300: a mid-run machine whose image is small enough to fuzz.
func smallMachine(tb testing.TB) *machine.Machine {
	tb.Helper()
	tr, err := workload.Generate("cceh", workload.Params{Threads: 2, OpsPerThread: 5, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := machine.New(config.Default(), model.NameASAPEP, tr)
	if err != nil {
		tb.Fatal(err)
	}
	m.Advance(300)
	return m
}

// checkLoaded fails a fuzz input unless Load returned exactly one of a
// machine and an error, and rejected a bad image without a recovered panic.
func checkLoaded(t *testing.T, m *machine.Machine, err error) {
	t.Helper()
	switch {
	case err == nil && m == nil:
		t.Fatal("Load returned neither a machine nor an error")
	case err != nil && m != nil:
		t.Fatalf("Load returned a machine and the error %v", err)
	case err != nil && strings.Contains(err.Error(), "load panicked"):
		t.Fatalf("Load recovered a decoder panic instead of rejecting the image: %v", err)
	}
}
