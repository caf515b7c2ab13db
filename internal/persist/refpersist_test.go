package persist

import (
	"sort"

	"asap/internal/mem"
)

// refWBB and refRecoveryTable are the map-based implementations the
// shipped record slices replaced, kept test-only as the reference the
// differential tests drive side by side with WBB and RecoveryTable.

type refWBB struct {
	capacity         int
	entries          map[mem.Line]bool
	parked, released uint64
	maxOcc           int
}

func newRefWBB(capacity int) *refWBB {
	return &refWBB{capacity: capacity, entries: make(map[mem.Line]bool)}
}

func (w *refWBB) Park(line mem.Line) bool {
	if w.entries[line] {
		return true
	}
	if len(w.entries) >= w.capacity {
		return false
	}
	w.entries[line] = true
	w.parked++
	w.maxOcc = max(w.maxOcc, len(w.entries))
	return true
}

func (w *refWBB) Contains(line mem.Line) bool { return w.entries[line] }

func (w *refWBB) ReleaseFlushed(pb LineBuffer, core int) int {
	n := 0
	for l := range w.entries {
		if !pb.PBHasLine(core, l) {
			delete(w.entries, l)
			w.released++
			n++
		}
	}
	return n
}

type refRecoveryTable struct {
	capacity  int
	undo      map[mem.Line]*UndoRecord
	delay     map[EpochID][]*DelayRecord
	delayLen  int
	maxOcc    int
	undoMade  uint64
	delayMade uint64
	coalesced uint64
}

func newRefRecoveryTable(capacity int) *refRecoveryTable {
	return &refRecoveryTable{
		capacity: capacity,
		undo:     make(map[mem.Line]*UndoRecord),
		delay:    make(map[EpochID][]*DelayRecord),
	}
}

func (rt *refRecoveryTable) Occupancy() int { return len(rt.undo) + rt.delayLen }
func (rt *refRecoveryTable) Full() bool     { return rt.Occupancy() >= rt.capacity }

func (rt *refRecoveryTable) bumpOcc() { rt.maxOcc = max(rt.maxOcc, rt.Occupancy()) }

func (rt *refRecoveryTable) Undo(l mem.Line) (*UndoRecord, bool) {
	r, ok := rt.undo[l]
	return r, ok
}

func (rt *refRecoveryTable) CreateUndo(l mem.Line, safe mem.Token, e EpochID) bool {
	if _, ok := rt.undo[l]; ok {
		panic("persist: undo record already exists for line")
	}
	if rt.Full() {
		return false
	}
	rt.undo[l] = &UndoRecord{Line: l, Safe: safe, Creator: e}
	rt.undoMade++
	rt.bumpOcc()
	return true
}

func (rt *refRecoveryTable) UpdateUndo(l mem.Line, safe mem.Token) {
	rt.undo[l].Safe = safe
}

func (rt *refRecoveryTable) CreateDelay(l mem.Line, tok mem.Token, e EpochID) bool {
	for _, d := range rt.delay[e] {
		if d.Line == l {
			d.Token = tok
			rt.coalesced++
			return true
		}
	}
	if rt.Full() {
		return false
	}
	rt.delay[e] = append(rt.delay[e], &DelayRecord{Line: l, Token: tok, Epoch: e})
	rt.delayLen++
	rt.delayMade++
	rt.bumpOcc()
	return true
}

func (rt *refRecoveryTable) HasDelay(l mem.Line, e EpochID) bool {
	for _, d := range rt.delay[e] {
		if d.Line == l {
			return true
		}
	}
	return false
}

func (rt *refRecoveryTable) Commit(e EpochID) []*DelayRecord {
	for l, r := range rt.undo {
		if r.Creator == e {
			delete(rt.undo, l)
		}
	}
	ds := rt.delay[e]
	delete(rt.delay, e)
	rt.delayLen -= len(ds)
	return ds
}

func (rt *refRecoveryTable) UndoRecords() []*UndoRecord {
	lines := make([]mem.Line, 0, len(rt.undo))
	for l := range rt.undo {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	out := make([]*UndoRecord, 0, len(lines))
	for _, l := range lines {
		out = append(out, rt.undo[l])
	}
	return out
}

func (rt *refRecoveryTable) Reset() {
	rt.undo = make(map[mem.Line]*UndoRecord)
	rt.delay = make(map[EpochID][]*DelayRecord)
	rt.delayLen = 0
}
