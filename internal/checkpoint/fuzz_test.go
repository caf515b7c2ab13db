package checkpoint

import (
	"os"
	"strings"
	"testing"
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
		switch {
		case err == nil && m == nil:
			t.Fatal("Load returned neither a machine nor an error")
		case err != nil && m != nil:
			t.Fatalf("Load returned a machine and the error %v", err)
		case err != nil && strings.Contains(err.Error(), "load panicked"):
			t.Fatalf("Load recovered a decoder panic instead of rejecting the image: %v", err)
		}
	})
}
