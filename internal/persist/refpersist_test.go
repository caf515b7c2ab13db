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

func (rt *refRecoveryTable) Clear() {
	rt.undo = make(map[mem.Line]*UndoRecord)
	rt.delay = make(map[EpochID][]*DelayRecord)
	rt.delayLen = 0
}

// refPersistBuffer and refEpochTable are the pointer-per-record versions
// the value slabs replaced: persist-buffer entries and epoch-table entries
// allocated one by one and recycled through free lists. They are kept
// test-only as the reference the slab differential tests drive op for op.

type refPersistBuffer struct {
	capacity  int
	nextID    uint64
	entries   []*PBEntry
	free      []*PBEntry
	inflight  int
	inserted  uint64
	coalesced uint64
	maxOcc    int
}

func newRefPersistBuffer(capacity int) *refPersistBuffer {
	return &refPersistBuffer{capacity: capacity}
}

func (pb *refPersistBuffer) Enqueue(line mem.Line, token mem.Token, ts uint64) (bool, bool) {
	for i := len(pb.entries) - 1; i >= 0; i-- {
		e := pb.entries[i]
		if e.Line == line && e.TS == ts && e.State == PBWaiting {
			e.Token = token
			pb.coalesced++
			return true, true
		}
		if e.Line == line {
			break
		}
	}
	if len(pb.entries) >= pb.capacity {
		return false, false
	}
	pb.nextID++
	var e *PBEntry
	if n := len(pb.free); n > 0 {
		e = pb.free[n-1]
		pb.free = pb.free[:n-1]
	} else {
		e = new(PBEntry)
	}
	*e = PBEntry{ID: pb.nextID, Line: line, Token: token, TS: ts, State: PBWaiting}
	pb.entries = append(pb.entries, e)
	pb.inserted++
	pb.maxOcc = max(pb.maxOcc, len(pb.entries))
	return false, true
}

func (pb *refPersistBuffer) NextWaitingIn(ts uint64, anyEpoch bool) *PBEntry {
	for _, e := range pb.entries {
		if e.State == PBWaiting && (anyEpoch || e.TS == ts) {
			return e
		}
	}
	return nil
}

func (pb *refPersistBuffer) MarkInflight(e *PBEntry, early bool) {
	e.State = PBInflight
	e.Early = early
	pb.inflight++
}

func (pb *refPersistBuffer) Ack(id uint64) (PBEntry, bool) {
	for i, e := range pb.entries {
		if e.ID == id {
			pb.inflight--
			out := *e
			pb.entries = append(pb.entries[:i], pb.entries[i+1:]...)
			pb.free = append(pb.free, e)
			return out, true
		}
	}
	return PBEntry{}, false
}

func (pb *refPersistBuffer) Nack(id uint64) *PBEntry {
	for _, e := range pb.entries {
		if e.ID == id {
			pb.inflight--
			e.State = PBWaiting
			e.Nacked = true
			return e
		}
	}
	return nil
}

type refEpochTable struct {
	capacity int
	current  uint64
	oldest   uint64
	ring     []*ETEntry
	mask     uint64
	count    int
	maxOcc   int
	free     []*ETEntry
}

func newRefEpochTable(capacity int) *refEpochTable {
	n := etRingSize(capacity)
	et := &refEpochTable{capacity: capacity, current: 1, oldest: 1, ring: make([]*ETEntry, n), mask: uint64(n) - 1, count: 1, maxOcc: 1}
	et.ring[1&et.mask] = &ETEntry{TS: 1}
	return et
}

func (et *refEpochTable) Get(ts uint64) (*ETEntry, bool) {
	if ts < et.oldest || ts > et.current {
		return nil, false
	}
	e := et.ring[ts&et.mask]
	return e, e != nil
}

func (et *refEpochTable) Advance() *ETEntry {
	et.ring[et.current&et.mask].Closed = true
	et.current++
	if et.current-et.oldest+1 > uint64(len(et.ring)) {
		old, oldMask := et.ring, et.mask
		et.ring = make([]*ETEntry, 2*len(old))
		et.mask = uint64(len(et.ring)) - 1
		for ts := et.oldest; ts <= et.current; ts++ {
			et.ring[ts&et.mask] = old[ts&oldMask]
		}
	}
	var e *ETEntry
	if n := len(et.free); n > 0 {
		e = et.free[n-1]
		et.free = et.free[:n-1]
		*e = ETEntry{TS: et.current, Deps: e.Deps[:0], Dependents: e.Dependents[:0]}
	} else {
		e = &ETEntry{TS: et.current}
	}
	et.ring[et.current&et.mask] = e
	et.count++
	et.maxOcc = max(et.maxOcc, et.count)
	return e
}

func (et *refEpochTable) Retire(ts uint64) {
	e, ok := et.Get(ts)
	if !ok {
		return
	}
	et.ring[ts&et.mask] = nil
	et.count--
	et.free = append(et.free, e)
	for et.oldest <= et.current && et.ring[et.oldest&et.mask] == nil {
		et.oldest++
	}
}

func (et *refEpochTable) PrevCommitted(ts uint64) bool {
	if ts <= 1 {
		return true
	}
	prev, ok := et.Get(ts - 1)
	return !ok || prev.Committed
}

func (et *refEpochTable) AllCommitted() bool {
	for ts := et.oldest; ts <= et.current; ts++ {
		e := et.ring[ts&et.mask]
		if e == nil || e.Committed || (!e.Closed && e.Unacked == 0 && len(e.Deps) == 0) {
			continue
		}
		return false
	}
	return true
}
