package machine

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/rng"
)

// ledgerOracle is the direct map-based transcription of the Ledger's
// contract, kept deliberately naive: per-line and per-epoch logs in record
// order, token-keyed maps, and the committed set.
type ledgerOracle struct {
	lineWrites  map[mem.Line][]WriteRec
	epochWrites map[persist.EpochID][]EpochWrite
	tokEpoch    map[mem.Token]persist.EpochID
	tokLine     map[mem.Token]mem.Line
	tokPos      map[mem.Token]int
	origins     map[mem.Token]Origin
	deps        map[persist.EpochID][]persist.EpochID
	committed   map[persist.EpochID]bool
	nDeps       uint64
}

func newLedgerOracle() *ledgerOracle {
	return &ledgerOracle{
		lineWrites:  map[mem.Line][]WriteRec{},
		epochWrites: map[persist.EpochID][]EpochWrite{},
		tokEpoch:    map[mem.Token]persist.EpochID{},
		tokLine:     map[mem.Token]mem.Line{},
		tokPos:      map[mem.Token]int{},
		origins:     map[mem.Token]Origin{},
		deps:        map[persist.EpochID][]persist.EpochID{},
		committed:   map[persist.EpochID]bool{},
	}
}

func (o *ledgerOracle) record(e persist.EpochID, l mem.Line, tok mem.Token) {
	o.tokPos[tok] = len(o.lineWrites[l])
	o.lineWrites[l] = append(o.lineWrites[l], WriteRec{Token: tok, Epoch: e})
	o.epochWrites[e] = append(o.epochWrites[e], EpochWrite{Line: l, Token: tok})
	o.tokEpoch[tok] = e
	o.tokLine[tok] = l
}

// ledgerScript drives a Ledger and its oracle through one adversarial
// sequence:
//   - tokens issue (SetOrigin) in order but are recorded out of order, the
//     way stores parked in a persist buffer reach RecordWrite late;
//   - a small line set, so one line collects writes from several threads
//     and epochs;
//   - sparse epoch timestamps (gaps of up to 1000);
//   - dependencies whose source or destination epoch never writes;
//   - a tail of tokens that get an origin but are never recorded, as when
//     a crash lands between issue and RecordWrite.
func ledgerScript(seed uint64, tokens int) (*Ledger, *ledgerOracle) {
	r := rng.New(seed)
	presize := tokens
	if seed%2 == 0 {
		presize = 0 // exercise slab growth too
	}
	lg, o := NewLedger(presize), newLedgerOracle()

	const threads = 4
	var ts [threads]uint64
	for th := range ts {
		ts[th] = 1 + r.Uint64n(3)
	}
	pending := []mem.Token{}
	seq := [threads]int{}
	for tok := mem.Token(1); tok <= mem.Token(tokens); tok++ {
		th := r.Intn(threads)
		org := Origin{Thread: th, Seq: seq[th]}
		seq[th]++
		lg.SetOrigin(tok, org)
		o.origins[tok] = org
		pending = append(pending, tok)

		// Record a random pending token (out of token order) unless the
		// tail is reached, which leaves its tokens unrecorded.
		for len(pending) > 0 && int(tok) < tokens-8 && r.Bool(0.7) {
			i := r.Intn(len(pending))
			rt := pending[i]
			pending = slices.Delete(pending, i, i+1)
			rth := o.origins[rt].Thread
			e := persist.EpochID{Thread: rth, TS: ts[rth]}
			l := mem.Line(r.Uint64n(24))
			if r.Bool(0.1) {
				l = mem.Line(1<<58 - 2 - r.Uint64n(4)) // far lines
			}
			lg.RecordWrite(e, l, rt)
			o.record(e, l, rt)
		}

		switch r.Intn(8) {
		case 0: // epoch boundary, sometimes sparse
			th := r.Intn(threads)
			if r.Bool(0.3) {
				ts[th] += 1 + r.Uint64n(1000)
			} else {
				ts[th]++
			}
		case 1: // commit an epoch, possibly one that never wrote
			th := r.Intn(threads)
			e := persist.EpochID{Thread: th, TS: r.Uint64n(ts[th] + 2)}
			lg.EpochCommitted(e)
			o.committed[e] = true
		case 2: // dependency, possibly between write-free epochs
			sth, dth := r.Intn(threads), r.Intn(threads)
			src := persist.EpochID{Thread: sth, TS: r.Uint64n(ts[sth] + 5)}
			dst := persist.EpochID{Thread: dth, TS: ts[dth] + r.Uint64n(3)}
			lg.DepCreated(src, dst)
			o.deps[dst] = append(o.deps[dst], src)
			o.nDeps++
		}
	}
	return lg, o
}

// compareLedger checks every read-side query of lg against the oracle.
func compareLedger(t *testing.T, lg *Ledger, o *ledgerOracle, tokens int) {
	t.Helper()
	// Writes and TokenPos.
	lines := make([]mem.Line, 0, len(o.lineWrites))
	for l := range o.lineWrites {
		lines = append(lines, l)
	}
	slices.Sort(lines)
	for _, l := range append(slices.Clone(lines), 24, 25, 1<<58-1) {
		if got, want := lg.Writes(l), o.lineWrites[l]; !slices.Equal(got, want) {
			t.Fatalf("Writes(%d) = %v, want %v", l, got, want)
		}
	}
	var gotLines []mem.Line
	lg.Lines(func(l mem.Line, ws []WriteRec) {
		gotLines = append(gotLines, l)
		if !slices.Equal(ws, o.lineWrites[l]) {
			t.Fatalf("Lines: line %d writes %v, want %v", l, ws, o.lineWrites[l])
		}
	})
	if !slices.Equal(gotLines, lines) {
		t.Fatalf("Lines visited %v, want %v", gotLines, lines)
	}

	// Token-keyed queries, including token 0 and tokens past the slab.
	for tok := mem.Token(0); tok <= mem.Token(tokens)+3; tok++ {
		e, rec := o.tokEpoch[tok]
		if p, ok := lg.TokenPos(tok); ok != rec || p != o.tokPos[tok] {
			t.Fatalf("TokenPos(%d) = %d,%v want %d,%v", tok, p, ok, o.tokPos[tok], rec)
		}
		wr, ok := lg.TokenRec(tok)
		want := WriteRec{}
		if rec {
			want = WriteRec{Token: tok, Epoch: e}
		}
		if ok != rec || wr != want {
			t.Fatalf("TokenRec(%d) = %+v,%v want %+v,%v", tok, wr, ok, want, rec)
		}
		if l, ok := lg.TokenLine(tok); ok != rec || l != o.tokLine[tok] {
			t.Fatalf("TokenLine(%d) = %d,%v want %d,%v", tok, l, ok, o.tokLine[tok], rec)
		}
		org, has := o.origins[tok]
		if g, ok := lg.Origin(tok); ok != has || g != org {
			t.Fatalf("Origin(%d) = %+v,%v want %+v,%v", tok, g, ok, org, has)
		}
		if has {
			if g := lg.TokenForOrigin(org); g != tok {
				t.Fatalf("TokenForOrigin(%+v) = %d, want %d", org, g, tok)
			}
		}
	}
	if g := lg.TokenForOrigin(Origin{Thread: 9, Seq: 0}); g != 0 {
		t.Fatalf("TokenForOrigin(unissued) = %d, want 0", g)
	}

	// Epoch-keyed queries over every epoch any log mentions, plus epochs
	// out of every range.
	epochs := map[persist.EpochID]bool{
		{Thread: -1, TS: 1}: true, {Thread: 0, TS: 0}: true,
		{Thread: 3, TS: 1 << 40}: true, {Thread: 99, TS: 1}: true,
	}
	for e := range o.epochWrites {
		epochs[e] = true
		epochs[persist.EpochID{Thread: e.Thread, TS: e.TS + 1}] = true
		if e.TS > 0 {
			epochs[persist.EpochID{Thread: e.Thread, TS: e.TS - 1}] = true
		}
	}
	for e := range o.committed {
		epochs[e] = true
	}
	for dst, srcs := range o.deps {
		epochs[dst] = true
		for _, s := range srcs {
			epochs[s] = true
		}
	}
	for e := range epochs {
		if got, want := lg.EpochWrites(e), o.epochWrites[e]; !slices.Equal(got, want) {
			t.Fatalf("EpochWrites(%v) = %v, want %v", e, got, want)
		}
		// IsCommitted is the epoch's own flag: an uncommitted epoch below
		// a committed one on the same thread is not reported committed.
		if got, want := lg.IsCommitted(e), o.committed[e]; got != want {
			t.Fatalf("IsCommitted(%v) = %v, want %v", e, got, want)
		}
		if got, want := lg.AppendPredecessors(nil, e), o.deps[e]; !slices.Equal(got, want) {
			t.Fatalf("AppendPredecessors(%v) = %v, want %v", e, got, want)
		}
	}
	var wantCommitted []persist.EpochID
	for e := range o.committed {
		wantCommitted = append(wantCommitted, e)
	}
	slices.SortFunc(wantCommitted, func(a, b persist.EpochID) int {
		if a.Thread != b.Thread {
			return a.Thread - b.Thread
		}
		switch {
		case a.TS < b.TS:
			return -1
		case a.TS > b.TS:
			return 1
		}
		return 0
	})
	var gotCommitted []persist.EpochID
	lg.CommittedEpochs(func(e persist.EpochID) { gotCommitted = append(gotCommitted, e) })
	if !reflect.DeepEqual(gotCommitted, wantCommitted) {
		t.Fatalf("CommittedEpochs = %v, want %v", gotCommitted, wantCommitted)
	}
	if lg.NumCommitted() != len(o.committed) || lg.NumDeps() != o.nDeps {
		t.Fatalf("counts: committed %d deps %d, want %d %d", lg.NumCommitted(), lg.NumDeps(), len(o.committed), o.nDeps)
	}
}

// TestLedgerMatchesOracle compares every Ledger query against the
// map-based oracle over adversarial record sequences.
func TestLedgerMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		for _, tokens := range []int{1, 9, 40, 400} {
			t.Run(fmt.Sprintf("seed%d/tokens%d", seed, tokens), func(t *testing.T) {
				lg, o := ledgerScript(seed, tokens)
				compareLedger(t, lg, o, tokens)
			})
		}
	}
}

// TestLedgerIsCommittedOwnFlag pins that IsCommitted reports only the
// epoch's own commit: committing TS 5 does not make TS 3 of the same
// thread committed.
func TestLedgerIsCommittedOwnFlag(t *testing.T) {
	lg := NewLedger(0)
	lg.EpochCommitted(persist.EpochID{Thread: 1, TS: 5})
	if lg.IsCommitted(persist.EpochID{Thread: 1, TS: 3}) {
		t.Fatal("lower epoch reported committed transitively")
	}
	if !lg.IsCommitted(persist.EpochID{Thread: 1, TS: 5}) {
		t.Fatal("committed epoch not reported")
	}
}

// TestLedgerRecordWriteZeroAlloc: on a ledger presized for its tokens,
// recording a write into an epoch that already exists allocates nothing.
func TestLedgerRecordWriteZeroAlloc(t *testing.T) {
	const n = 1 << 12 // > 2 tokens per measured call
	lg := NewLedger(n)
	e := persist.EpochID{Thread: 2, TS: 7}
	tok := mem.Token(1)
	lg.SetOrigin(tok, Origin{Thread: 2})
	lg.RecordWrite(e, 3, tok)
	record := func() {
		tok++
		lg.SetOrigin(tok, Origin{Thread: 2, Seq: int(tok)})
		lg.RecordWrite(e, mem.Line(tok%64), tok)
	}
	// One call per measurement: AllocsPerRun truncates its average, which
	// would hide an amortized slice growth.
	for i := 0; i < 1000; i++ {
		if allocs := testing.AllocsPerRun(1, record); allocs != 0 {
			t.Fatalf("RecordWrite of token %d allocated %.0f times", tok, allocs)
		}
	}
}
