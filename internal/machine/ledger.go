package machine

import (
	"cmp"
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

// tokenRec is the per-token ground truth. The machine issues tokens as a
// dense 1..N sequence, so the whole write log lives in one slice entry
// indexed by the token itself: RecordWrite on the persist hot path fills
// one entry and links it onto its epoch's chain, with no per-line or
// per-epoch log to grow.
//
// The entry is packed to 40 bytes (the slab is the ledger's bulk): tokens,
// record positions, thread ids and per-thread store counts are 32-bit —
// a trace would need more than 2^31 persistent stores to overflow them.
type tokenRec struct {
	line    mem.Line
	epochTS uint64
	thread  int32 // epoch's thread
	// seq is the token's 1-based position in record order (0: never
	// recorded). Models record a line's writes in coherence order, so for
	// two writes to one line seq orders them.
	seq uint32
	// next is the epoch's next recorded token (0 ends the chain).
	next uint32
	// origin is Origin{originThread, originSeq-1}; originSeq 0 marks a
	// token without one.
	originThread int32
	originSeq    int32
}

func (r *tokenRec) epoch() persist.EpochID {
	return persist.EpochID{Thread: int(r.thread), TS: r.epochTS}
}

func (r *tokenRec) origin() (Origin, bool) {
	if r.originSeq == 0 {
		return Origin{}, false
	}
	return Origin{Thread: int(r.originThread), Seq: int(r.originSeq) - 1}, true
}

// epochRec is one epoch's ground truth: the ends of its write chain
// through the token slab and of its dependency chain through the edge
// slab, and its commit flag.
type epochRec struct {
	head, tail       uint32 // first and last token recorded in the epoch (0: none)
	depHead, depTail uint32 // first and last edge into the epoch, 1 + its index in deps (0: none)
	committed        bool
}

// depRec is one cross-thread dependency edge, filed under its destination
// epoch: the source epoch, and the destination's next edge in creation
// order (1 + its index; 0 ends the chain).
type depRec struct {
	srcTS     uint64
	srcThread int32
	next      uint32
}

// Ledger is the machine's ground-truth log: every persistent write with
// its line, epoch and record position, the cross-thread dependency edges
// the model created, and the set of committed epochs. The crash checker
// (package crash) verifies the post-crash NVM image against it —
// implementing Theorem 2 of the paper as an executable check.
//
// RecordWrite is called once per persistent store, making it one of the
// hottest functions of a full run; the representation is therefore flat:
// one token-indexed slab, presized from the trace, holds each write, and
// each epoch chains its writes through the slab; the dependency edges sit
// in a second slab, each epoch chaining the edges into it the same way. A
// line's write order is not stored: its writes are the slab entries on
// that line, ordered by seq. The per-line views (Writes, Lines, TokenPos)
// derive it on demand, and the Ledger keeps no cached index, so a
// checkpoint image never depends on which queries ran.
type Ledger struct {
	recs    []tokenRec // indexed by token; index 0 unused (token 0 = "never written")
	nWrites uint32     // writes recorded so far; the last write's seq
	// byThread[th][ts] is epoch (th, ts)'s record. Epoch timestamps are
	// small dense per-thread sequences, so TS indexes a slice directly —
	// no EpochID hashing on the write path.
	byThread [][]epochRec
	deps     []depRec // every dependency edge, in creation order

	nCommitted int
}

// NewLedger returns an empty ledger with room for tokens tokens (a
// machine issues one per persistent store of its trace).
func NewLedger(tokens int) *Ledger {
	return &Ledger{recs: make([]tokenRec, 0, tokens+1)}
}

// rec returns the record for token, growing the slab to cover it. Tokens
// are dense, so growth amortizes to one append per token.
func (lg *Ledger) rec(token mem.Token) *tokenRec {
	for uint64(len(lg.recs)) <= uint64(token) {
		lg.recs = append(lg.recs, tokenRec{}) //asaplint:ignore alloccheck tokens are dense; amortizes to one append per token
	}
	return &lg.recs[token]
}

// epoch returns e's record, growing the per-thread slices to cover it.
func (lg *Ledger) epoch(e persist.EpochID) *epochRec {
	for len(lg.byThread) <= e.Thread {
		lg.byThread = append(lg.byThread, nil) //asaplint:ignore alloccheck grows once to the machine's thread count
	}
	te := &lg.byThread[e.Thread]
	for uint64(len(*te)) <= e.TS {
		*te = append(*te, epochRec{}) //asaplint:ignore alloccheck one slot per epoch; epochs are dense per thread
	}
	return &(*te)[e.TS]
}

// lookup returns e's record, or nil if the ledger has never seen e.
func (lg *Ledger) lookup(e persist.EpochID) *epochRec {
	if e.Thread < 0 || e.Thread >= len(lg.byThread) {
		return nil
	}
	te := lg.byThread[e.Thread]
	if e.TS >= uint64(len(te)) {
		return nil
	}
	return &te[e.TS]
}

// recorded returns token's record if RecordWrite has seen it.
func (lg *Ledger) recorded(token mem.Token) (*tokenRec, bool) {
	if uint64(token) < uint64(len(lg.recs)) && lg.recs[token].seq != 0 {
		return &lg.recs[token], true
	}
	return nil, false
}

// RecordWrite implements model.Ledger. Each token is recorded at most
// once.
func (lg *Ledger) RecordWrite(e persist.EpochID, line mem.Line, token mem.Token) {
	lg.nWrites++
	r := lg.rec(token)
	r.line = line
	r.epochTS, r.thread = e.TS, int32(e.Thread)
	r.seq = lg.nWrites
	ep := lg.epoch(e)
	if ep.tail == 0 {
		ep.head = uint32(token)
	} else {
		lg.recs[ep.tail].next = uint32(token)
	}
	ep.tail = uint32(token)
}

// DepCreated implements model.Ledger. The edge joins the slab and the end
// of dst's chain.
func (lg *Ledger) DepCreated(src, dst persist.EpochID) {
	lg.deps = append(lg.deps, depRec{srcTS: src.TS, srcThread: int32(src.Thread)}) //asaplint:ignore alloccheck the ledger is an append-only audit log; dependency edges are part of the record
	i := uint32(len(lg.deps))
	ep := lg.epoch(dst)
	if ep.depTail == 0 {
		ep.depHead = i
	} else {
		lg.deps[ep.depTail-1].next = i
	}
	ep.depTail = i
}

// EpochCommitted implements model.Ledger.
func (lg *Ledger) EpochCommitted(e persist.EpochID) {
	if ep := lg.epoch(e); !ep.committed {
		ep.committed = true
		lg.nCommitted++
	}
}

// TokenSeq returns token's position in record order (1-based). For two
// writes to the same line the lower seq is the earlier write in coherence
// order.
func (lg *Ledger) TokenSeq(token mem.Token) (int, bool) {
	if r, ok := lg.recorded(token); ok {
		return int(r.seq), true
	}
	return 0, false
}

// EpochHead returns the first token recorded in epoch e (0 for an epoch
// that issued no write). EpochNext walks the rest of its writes in record
// order.
func (lg *Ledger) EpochHead(e persist.EpochID) mem.Token {
	if ep := lg.lookup(e); ep != nil {
		return mem.Token(ep.head)
	}
	return 0
}

// EpochNext returns the token recorded in token's epoch after it (0 after
// the last).
func (lg *Ledger) EpochNext(token mem.Token) mem.Token {
	if r, ok := lg.recorded(token); ok {
		return mem.Token(r.next)
	}
	return 0
}

// AppendLines appends every line with at least one persistent write to
// dst, once each and in ascending line order so crash-check reports are
// reproducible, and returns the extended slice. It allocates only if dst
// lacks room for one entry per recorded write.
func (lg *Ledger) AppendLines(dst []mem.Line) []mem.Line {
	start := len(dst)
	for i := range lg.recs {
		if lg.recs[i].seq != 0 {
			dst = append(dst, lg.recs[i].line)
		}
	}
	slices.Sort(dst[start:])
	return dst[:start+len(slices.Compact(dst[start:]))]
}

// lineWrite is one write of the per-line views, with its record position.
type lineWrite struct {
	line mem.Line
	seq  uint32
	w    WriteRec
}

// lineWrites returns the recorded writes on line l (every line if all),
// ordered by line then record position.
func (lg *Ledger) lineWrites(l mem.Line, all bool) []lineWrite {
	var out []lineWrite
	for tok := range lg.recs {
		r := &lg.recs[tok]
		if r.seq != 0 && (all || r.line == l) {
			out = append(out, lineWrite{line: r.line, seq: r.seq, w: WriteRec{Token: mem.Token(tok), Epoch: r.epoch()}})
		}
	}
	slices.SortFunc(out, func(a, b lineWrite) int {
		if a.line != b.line {
			return cmp.Compare(a.line, b.line)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	return out
}

// Writes returns the write order of a line (coherence order). It is a
// view derived from the slab for tests and tools.
func (lg *Ledger) Writes(line mem.Line) []WriteRec {
	var ws []WriteRec
	for _, lw := range lg.lineWrites(line, false) {
		ws = append(ws, lw.w)
	}
	return ws
}

// Lines calls fn for every line with at least one persistent write, with
// that line's write order, in ascending line order. Like Writes it is a
// derived view; the crash checker uses AppendLines.
func (lg *Ledger) Lines(fn func(mem.Line, []WriteRec)) {
	all := lg.lineWrites(0, true)
	for i := 0; i < len(all); {
		var ws []WriteRec
		j := i
		for ; j < len(all) && all[j].line == all[i].line; j++ {
			ws = append(ws, all[j].w)
		}
		fn(all[i].line, ws)
		i = j
	}
}

// TokenPos returns the position of token in its line's write order.
func (lg *Ledger) TokenPos(token mem.Token) (int, bool) {
	r, ok := lg.recorded(token)
	if !ok {
		return 0, false
	}
	pos := 0
	for i := range lg.recs {
		if o := &lg.recs[i]; o.seq != 0 && o.seq < r.seq && o.line == r.line {
			pos++
		}
	}
	return pos, true
}

// TokenRec returns the write record for a token.
func (lg *Ledger) TokenRec(token mem.Token) (WriteRec, bool) {
	if r, ok := lg.recorded(token); ok {
		return WriteRec{Token: token, Epoch: r.epoch()}, true
	}
	return WriteRec{}, false
}

// IsCommitted reports whether the model committed epoch e before the
// crash. It is e's own flag only: a lower-timestamp epoch of the same
// thread is not implied committed by a later one.
func (lg *Ledger) IsCommitted(e persist.EpochID) bool {
	ep := lg.lookup(e)
	return ep != nil && ep.committed
}

// AppendPredecessors appends the recorded dependency sources of epoch e to
// dst, in creation order, and returns the extended slice; the intra-thread
// predecessor (TS-1) is implicit and not included. It allocates only if
// dst lacks room.
func (lg *Ledger) AppendPredecessors(dst []persist.EpochID, e persist.EpochID) []persist.EpochID {
	ep := lg.lookup(e)
	if ep == nil {
		return dst
	}
	for i := ep.depHead; i != 0; i = lg.deps[i-1].next {
		d := &lg.deps[i-1]
		dst = append(dst, persist.EpochID{Thread: int(d.srcThread), TS: d.srcTS})
	}
	return dst
}

// EpochWrites returns the writes attributed to epoch e in record order
// (nil for an epoch that issued none). It is a view derived from the
// epoch's chain; the crash checker walks EpochHead/EpochNext instead.
func (lg *Ledger) EpochWrites(e persist.EpochID) []EpochWrite {
	var ws []EpochWrite
	for tok := lg.EpochHead(e); tok != 0; tok = lg.EpochNext(tok) {
		ws = append(ws, EpochWrite{Line: lg.recs[tok].line, Token: tok})
	}
	return ws
}

// TokenLine returns the line a token was written to.
func (lg *Ledger) TokenLine(token mem.Token) (mem.Line, bool) {
	if r, ok := lg.recorded(token); ok {
		return r.line, true
	}
	return 0, false
}

// CommittedEpochs calls fn for every committed epoch, ordered by thread
// then timestamp so downstream reports are reproducible. The per-thread
// logs store epochs in exactly that order, so no sort is needed.
func (lg *Ledger) CommittedEpochs(fn func(persist.EpochID)) {
	for th, epochs := range lg.byThread {
		for ts := range epochs {
			if epochs[ts].committed {
				fn(persist.EpochID{Thread: th, TS: uint64(ts)})
			}
		}
	}
}

// SetOrigin records the trace origin of a token (set by the machine when
// the store issues).
func (lg *Ledger) SetOrigin(token mem.Token, o Origin) {
	r := lg.rec(token)
	r.originThread, r.originSeq = int32(o.Thread), int32(o.Seq)+1
}

// Origin returns the trace origin of a token.
func (lg *Ledger) Origin(token mem.Token) (Origin, bool) {
	if uint64(token) < uint64(len(lg.recs)) {
		return lg.recs[token].origin()
	}
	return Origin{}, false
}

// TokenForOrigin finds the token issued for the given trace origin (0 if
// that store never issued, e.g. the run crashed first). Tokens map to
// unique origins, so the ascending scan finds at most one match.
func (lg *Ledger) TokenForOrigin(o Origin) mem.Token {
	for tok := 1; tok < len(lg.recs); tok++ {
		if org, ok := lg.recs[tok].origin(); ok && org == o {
			return mem.Token(tok)
		}
	}
	return 0
}

// NumDeps returns the number of cross-thread dependency edges recorded —
// the quantity plotted in Figure 2.
func (lg *Ledger) NumDeps() uint64 { return uint64(len(lg.deps)) }

// NumCommitted returns the number of committed epochs.
func (lg *Ledger) NumCommitted() int { return lg.nCommitted }
