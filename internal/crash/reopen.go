package crash

import (
	"fmt"

	"asap/internal/machine"
	"asap/internal/pmds"
)

// RebuildImage reconstructs the post-crash persistent-memory byte image of
// a pmds heap: for every line, the token that survived in the simulated NVM
// selects the line image the heap recorded at that store (generation must
// have run with Heap.CaptureImages). Lines never persisted come back as
// zeroes, exactly like real PM after a crash that beat their first flush.
//
// Together with pmds.ReopenHeap and the structures' Reopen functions this
// demonstrates the paper's §V-E claim end to end: after the ADR drain,
// memory needs no further recovery — a data structure simply reopens.
//
// The mapping is exact for single-threaded traces. For multi-threaded
// traces the image recorded at a store reflects *generation-time* ordering
// of other threads' same-line writes, which may differ from replay-time
// coherence order; callers wanting byte-exact multi-thread images should
// keep threads' data disjoint (as the pmds structures do for everything
// except lock-protected shared lines).
func RebuildImage(m *machine.Machine, h *pmds.Heap, size int) ([]byte, error) {
	out := make([]byte, size)
	for _, l := range m.Ledger.AppendLines(nil) {
		tok := m.MCs[m.IL.Home(l)].NVM.Peek(l)
		if tok == 0 {
			continue // never persisted: stays zero
		}
		origin, ok := m.Ledger.Origin(tok)
		if !ok {
			return nil, fmt.Errorf("crash: surviving token %d has no origin", tok)
		}
		imgs := h.Images(origin.Thread)
		if origin.Seq >= len(imgs) {
			return nil, fmt.Errorf("crash: origin %+v beyond %d recorded images", origin, len(imgs))
		}
		img := imgs[origin.Seq]
		addr := l.Addr()
		if img.LineAddr != addr {
			return nil, fmt.Errorf("crash: image for token %d is line %#x, want %#x", tok, img.LineAddr, addr)
		}
		off := addr - pmds.PMBase
		if off+64 > uint64(size) {
			continue // metadata line outside the data heap
		}
		copy(out[off:], img.Data[:])
	}
	return out, nil
}
