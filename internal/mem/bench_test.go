package mem

import "testing"

// memSideSink keeps the benchmark's reads observable.
var memSideSink Token

// BenchmarkMemSide is the memory-side rung: one controller's WPQ,
// XPBuffer and NVM at the machine's shape (config.Default: a 16-entry
// WPQ, a 512-line XPBuffer), driven the way persist.MC drives them. Each
// op serves one flush: find the line's current value (WPQ, then XPBuffer,
// then a media read that fills the XPBuffer), queue the new value, and
// drain the oldest entry to media once the queue is full. Half the
// flushes go to a 256-line hot set and half across a 4096-line footprint,
// so the mix has WPQ coalesces, XPBuffer hits and evictions, and NVM
// rewrites.
func BenchmarkMemSide(b *testing.B) {
	w, x, n := NewWPQ(16), NewXPBuffer(512), NewNVM(4096)
	var lines [4096]Line
	for i := range lines {
		r := Line(uint64(i) * 0x9E3779B97F4A7C15 >> 40)
		if i%2 == 0 {
			lines[i] = r % 256
		} else {
			lines[i] = r % 4096
		}
		n.Write(lines[i], Token(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := lines[i%len(lines)]
		t, ok := w.Contains(l)
		if !ok {
			if t, ok = x.Lookup(l); !ok {
				t = n.Read(l)
				x.Insert(l, t)
			}
		}
		memSideSink = t
		if w.Full() {
			dl, dt := w.Pop()
			n.Write(dl, dt)
			x.Insert(dl, dt)
		}
		w.Insert(l, Token(i))
	}
}
