package machine

import (
	"slices"

	"asap/internal/mem"
	"asap/internal/persist"
)

// WriteRec is one persistent write as ground truth for the crash checker.
type WriteRec struct {
	Token mem.Token
	Epoch persist.EpochID
}

// Origin locates a token in its source trace: the Seq-th persistent store
// of thread Thread. It bridges the token-based timing model back to the
// byte-level heap images recorded by pmds (post-crash reopen).
type Origin struct {
	Thread int
	Seq    int
}

// EpochWrite is one write attributed to an epoch.
type EpochWrite struct {
	Line  mem.Line
	Token mem.Token
}

type tokenFlags uint8

const (
	tokRecorded tokenFlags = 1 << iota // RecordWrite seen for this token
	tokHasOrigin
)

// tokenRec is the per-token ground truth. The machine issues tokens as a
// dense 1..N sequence, so everything previously spread over four
// token-keyed maps (position, record, line, origin) lives in one slice
// entry indexed by the token itself — RecordWrite on the persist hot path
// touches one cache line here instead of hashing four maps.
type tokenRec struct {
	line   mem.Line
	epoch  persist.EpochID
	origin Origin
	pos    int32
	flags  tokenFlags
}

// lineSlot is one slot of the ledger's open-addressed line table (linear
// probing, no deletes — the same shape as the cache directory's table).
// ref is index+1 into lineWrites; 0 marks the slot empty, since line 0 is
// a valid key.
type lineSlot struct {
	line mem.Line
	ref  int32
}

// ledgerInitSlots is the line table's initial size; must be a power of two.
const ledgerInitSlots = 1024

// threadEpochs is one thread's epoch-keyed ground truth. Epoch timestamps
// are small dense per-thread sequences, so TS indexes a slice directly —
// no EpochID hashing on the write path.
type threadEpochs struct {
	writes    [][]EpochWrite
	deps      [][]persist.EpochID
	committed []bool
}

// Ledger is the machine's ground-truth log: for every line the ordered
// sequence of persistent writes (coherence order), the cross-thread
// dependency edges the model created, and the set of committed epochs.
// The crash checker (package crash) verifies the post-crash NVM image
// against it — implementing Theorem 2 of the paper as an executable check.
//
// RecordWrite is called once per persistent store, making it one of the
// hottest functions of a full run; the representation is therefore flat:
// a token-indexed slab, an open-addressed line table, and per-thread
// TS-indexed epoch logs, rather than the seven maps a direct transcription
// would use.
type Ledger struct {
	recs []tokenRec // indexed by token; index 0 unused (token 0 = "never written")

	lineSlots  []lineSlot
	lineMask   uint64
	lineCount  int
	lineWrites [][]WriteRec
	lineKeys   []mem.Line // first-touch order; sorted on demand by Lines

	byThread   []threadEpochs
	nDeps      uint64
	nCommitted int
}

// NewLedger returns an empty ledger with room for tokens tokens (a
// machine issues one per persistent store of its trace).
func NewLedger(tokens int) *Ledger {
	return &Ledger{
		recs:      make([]tokenRec, 0, tokens+1),
		lineSlots: make([]lineSlot, ledgerInitSlots),
		lineMask:  ledgerInitSlots - 1,
	}
}

// lineHash spreads line numbers across the table (Fibonacci hashing);
// workload lines are sequential within a structure, so the low bits alone
// would cluster whole regions onto neighbouring probe chains.
func lineHash(l mem.Line) uint64 {
	return uint64(l) * 0x9E3779B97F4A7C15
}

// findLine returns the slot index holding l, or the empty slot where l
// would be inserted.
func (lg *Ledger) findLine(l mem.Line) int {
	i := (lineHash(l) >> 32) & lg.lineMask
	for {
		s := &lg.lineSlots[i]
		if s.ref == 0 || s.line == l {
			return int(i)
		}
		i = (i + 1) & lg.lineMask
	}
}

// lineRef returns the lineWrites index for l, creating the log on first
// touch.
func (lg *Ledger) lineRef(l mem.Line) int32 {
	i := lg.findLine(l)
	if r := lg.lineSlots[i].ref; r != 0 {
		return r - 1
	}
	lg.lineWrites = append(lg.lineWrites, nil) //asaplint:ignore alloccheck one slot per distinct line in the workload footprint
	lg.lineKeys = append(lg.lineKeys, l)       //asaplint:ignore alloccheck one slot per distinct line in the workload footprint
	ref := int32(len(lg.lineWrites))
	lg.lineSlots[i] = lineSlot{line: l, ref: ref}
	lg.lineCount++
	if uint64(lg.lineCount)*4 >= uint64(len(lg.lineSlots))*3 {
		lg.growLines()
	}
	return ref - 1
}

// growLines doubles the line table and re-places every occupied slot.
func (lg *Ledger) growLines() {
	old := lg.lineSlots
	lg.lineSlots = make([]lineSlot, len(old)*2) //asaplint:ignore alloccheck amortized doubling of the open-addressed line table
	lg.lineMask = uint64(len(lg.lineSlots)) - 1
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		i := (lineHash(s.line) >> 32) & lg.lineMask
		for lg.lineSlots[i].ref != 0 {
			i = (i + 1) & lg.lineMask
		}
		lg.lineSlots[i] = s
	}
}

// rec returns the record for token, growing the slab to cover it. Tokens
// are dense, so growth amortizes to one append per token.
func (lg *Ledger) rec(token mem.Token) *tokenRec {
	for uint64(len(lg.recs)) <= uint64(token) {
		lg.recs = append(lg.recs, tokenRec{}) //asaplint:ignore alloccheck tokens are dense; amortizes to one append per token
	}
	return &lg.recs[token]
}

// thread returns thread th's epoch log, growing the per-thread slice to
// cover it.
func (lg *Ledger) thread(th int) *threadEpochs {
	for len(lg.byThread) <= th {
		lg.byThread = append(lg.byThread, threadEpochs{}) //asaplint:ignore alloccheck grows once to the machine's thread count
	}
	return &lg.byThread[th]
}

// RecordWrite implements model.Ledger.
func (lg *Ledger) RecordWrite(e persist.EpochID, line mem.Line, token mem.Token) {
	ref := lg.lineRef(line)
	r := lg.rec(token)
	r.line = line
	r.epoch = e
	r.pos = int32(len(lg.lineWrites[ref]))
	r.flags |= tokRecorded
	lg.lineWrites[ref] = append(lg.lineWrites[ref], WriteRec{Token: token, Epoch: e}) //asaplint:ignore alloccheck the ledger is an append-only audit log; recording every persist is its function
	te := lg.thread(e.Thread)
	for uint64(len(te.writes)) <= e.TS {
		te.writes = append(te.writes, nil) //asaplint:ignore alloccheck one slot per epoch; epochs are dense per thread
	}
	te.writes[e.TS] = append(te.writes[e.TS], EpochWrite{Line: line, Token: token}) //asaplint:ignore alloccheck the ledger is an append-only audit log; recording every persist is its function
}

// DepCreated implements model.Ledger.
func (lg *Ledger) DepCreated(src, dst persist.EpochID) {
	te := lg.thread(dst.Thread)
	for uint64(len(te.deps)) <= dst.TS {
		te.deps = append(te.deps, nil) //asaplint:ignore alloccheck one slot per epoch; epochs are dense per thread
	}
	te.deps[dst.TS] = append(te.deps[dst.TS], src) //asaplint:ignore alloccheck the ledger is an append-only audit log; dependency edges are part of the record
	lg.nDeps++
}

// EpochCommitted implements model.Ledger.
func (lg *Ledger) EpochCommitted(e persist.EpochID) {
	te := lg.thread(e.Thread)
	for uint64(len(te.committed)) <= e.TS {
		te.committed = append(te.committed, false) //asaplint:ignore alloccheck audit log: dense per-epoch growth, amortized doubling
	}
	if !te.committed[e.TS] {
		te.committed[e.TS] = true
		lg.nCommitted++
	}
}

// Writes returns the write order of a line.
func (lg *Ledger) Writes(line mem.Line) []WriteRec {
	if r := lg.lineSlots[lg.findLine(line)].ref; r != 0 {
		return lg.lineWrites[r-1]
	}
	return nil
}

// Lines calls fn for every line with at least one persistent write, in
// ascending line order so crash-check reports are reproducible.
func (lg *Ledger) Lines(fn func(mem.Line, []WriteRec)) {
	lines := make([]mem.Line, len(lg.lineKeys))
	copy(lines, lg.lineKeys)
	slices.Sort(lines)
	for _, l := range lines {
		fn(l, lg.Writes(l))
	}
}

// TokenPos returns the position of token in its line's write order.
func (lg *Ledger) TokenPos(token mem.Token) (int, bool) {
	if uint64(token) < uint64(len(lg.recs)) && lg.recs[token].flags&tokRecorded != 0 {
		return int(lg.recs[token].pos), true
	}
	return 0, false
}

// TokenRec returns the write record for a token.
func (lg *Ledger) TokenRec(token mem.Token) (WriteRec, bool) {
	if uint64(token) < uint64(len(lg.recs)) && lg.recs[token].flags&tokRecorded != 0 {
		return WriteRec{Token: token, Epoch: lg.recs[token].epoch}, true
	}
	return WriteRec{}, false
}

// IsCommitted reports whether epoch e committed before the crash. Epochs on
// the same thread with a lower timestamp than any committed epoch are
// committed transitively (models commit per-thread in order).
func (lg *Ledger) IsCommitted(e persist.EpochID) bool {
	if e.Thread < 0 || e.Thread >= len(lg.byThread) {
		return false
	}
	te := &lg.byThread[e.Thread]
	return e.TS < uint64(len(te.committed)) && te.committed[e.TS]
}

// Predecessors returns the recorded dependency sources of epoch e; the
// intra-thread predecessor (TS-1) is implicit and not included.
func (lg *Ledger) Predecessors(e persist.EpochID) []persist.EpochID {
	if e.Thread < 0 || e.Thread >= len(lg.byThread) {
		return nil
	}
	te := &lg.byThread[e.Thread]
	if e.TS >= uint64(len(te.deps)) {
		return nil
	}
	return te.deps[e.TS]
}

// EpochWrites returns the writes attributed to epoch e (nil for an epoch
// that issued none).
func (lg *Ledger) EpochWrites(e persist.EpochID) []EpochWrite {
	if e.Thread < 0 || e.Thread >= len(lg.byThread) {
		return nil
	}
	te := &lg.byThread[e.Thread]
	if e.TS >= uint64(len(te.writes)) {
		return nil
	}
	return te.writes[e.TS]
}

// TokenLine returns the line a token was written to.
func (lg *Ledger) TokenLine(token mem.Token) (mem.Line, bool) {
	if uint64(token) < uint64(len(lg.recs)) && lg.recs[token].flags&tokRecorded != 0 {
		return lg.recs[token].line, true
	}
	return 0, false
}

// CommittedEpochs calls fn for every committed epoch, ordered by thread
// then timestamp so downstream reports are reproducible. The per-thread
// logs store epochs in exactly that order, so no sort is needed.
func (lg *Ledger) CommittedEpochs(fn func(persist.EpochID)) {
	for th := range lg.byThread {
		committed := lg.byThread[th].committed
		for ts := range committed {
			if committed[ts] {
				fn(persist.EpochID{Thread: th, TS: uint64(ts)})
			}
		}
	}
}

// SetOrigin records the trace origin of a token (set by the machine when
// the store issues).
func (lg *Ledger) SetOrigin(token mem.Token, o Origin) {
	r := lg.rec(token)
	r.origin = o
	r.flags |= tokHasOrigin
}

// Origin returns the trace origin of a token.
func (lg *Ledger) Origin(token mem.Token) (Origin, bool) {
	if uint64(token) < uint64(len(lg.recs)) && lg.recs[token].flags&tokHasOrigin != 0 {
		return lg.recs[token].origin, true
	}
	return Origin{}, false
}

// TokenForOrigin finds the token issued for the given trace origin (0 if
// that store never issued, e.g. the run crashed first). Tokens map to
// unique origins, so the ascending scan finds at most one match.
func (lg *Ledger) TokenForOrigin(o Origin) mem.Token {
	for tok := 1; tok < len(lg.recs); tok++ {
		if lg.recs[tok].flags&tokHasOrigin != 0 && lg.recs[tok].origin == o {
			return mem.Token(tok)
		}
	}
	return 0
}

// NumDeps returns the number of cross-thread dependency edges recorded —
// the quantity plotted in Figure 2.
func (lg *Ledger) NumDeps() uint64 { return lg.nDeps }

// NumCommitted returns the number of committed epochs.
func (lg *Ledger) NumCommitted() int { return lg.nCommitted }
