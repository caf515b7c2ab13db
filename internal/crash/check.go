// Package crash injects power failures into a running machine and verifies
// that the recovered NVM image is consistent — an executable form of the
// paper's §VI correctness argument:
//
//   - Lemma 1.1: every write of a committed epoch is durable.
//   - Theorem 2: the surviving value of every line belongs to an epoch
//     whose entire dependency ancestry (same-thread predecessors plus
//     recorded cross-thread dependencies) is durable, i.e. the surviving
//     epoch set is prefix-closed over the dependency DAG.
//
// Partial survival of frontier epochs (safe but uncommitted) is legal under
// epoch persistency; the checker only rejects images where a later epoch's
// write survived while an earlier epoch it depends on lost one.
package crash

import (
	"fmt"
	"sync"

	"asap/internal/machine"
	"asap/internal/mem"
	"asap/internal/persist"
)

// Report is the outcome of one consistency check.
type Report struct {
	OK       bool
	Problems []string
	// LinesChecked counts persistent lines inspected.
	LinesChecked int
	// SurvivingEpochs counts distinct epochs with a surviving write.
	SurvivingEpochs int
}

func (r *Report) fail(format string, args ...interface{}) {
	r.OK = false
	if len(r.Problems) < 32 { // cap noise
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// epochMemo is a dense memo table for per-epoch verdicts. A campaign calls
// Check once per injection point — thousands of calls against the same
// footprint — and epoch timestamps are small dense per-thread sequences, so
// (thread, TS)-indexed byte slices replace EpochID-keyed maps: no hashing
// on any visit, one amortized growth path. A negative thread (never emitted
// by the models, but EpochID admits it) falls back to a tiny overflow map.
type epochMemo struct {
	byThread [][]uint8
	overflow map[persist.EpochID]uint8
}

func (t *epochMemo) get(e persist.EpochID) uint8 {
	if e.Thread < 0 {
		return t.overflow[e]
	}
	if e.Thread >= len(t.byThread) || e.TS >= uint64(len(t.byThread[e.Thread])) {
		return 0
	}
	return t.byThread[e.Thread][e.TS]
}

func (t *epochMemo) set(e persist.EpochID, v uint8) {
	if e.Thread < 0 {
		if t.overflow == nil {
			t.overflow = make(map[persist.EpochID]uint8)
		}
		t.overflow[e] = v
		return
	}
	for len(t.byThread) <= e.Thread {
		t.byThread = append(t.byThread, nil)
	}
	if s := t.byThread[e.Thread]; e.TS < uint64(len(s)) {
		s[e.TS] = v
		return
	}
	grown := make([]uint8, e.TS+e.TS/2+16)
	copy(grown, t.byThread[e.Thread])
	grown[e.TS] = v
	t.byThread[e.Thread] = grown
}

// reset forgets every verdict, keeping the tables' storage.
func (t *epochMemo) reset() {
	for _, s := range t.byThread {
		clear(s)
	}
	clear(t.overflow)
}

// checkScratch is one Check's working storage, pooled so a campaign's
// thousands of checks reuse it instead of allocating per call.
type checkScratch struct {
	lines                     []mem.Line
	preds                     []persist.EpochID // checkAncestry's stack of dependency sources
	durable, ancestry, seenEp epochMemo
}

var scratchPool = sync.Pool{New: func() any { return new(checkScratch) }}

// Check verifies the machine's post-crash NVM image against its ledger.
// Call it after Machine.Run returned with Crashed=true (or after a normal
// completion, where it degenerates to checking that all committed writes
// persisted).
//
// Each epoch's writes are walked once through the ledger's chain and the
// written lines are listed by sorting the slab's lines, so the work is
// O(W log W) in the W recorded writes, and all working storage is pooled:
// a check allocates nothing once warm.
func Check(m *machine.Machine) Report {
	rep := Report{OK: true}
	lg := m.Ledger
	sc := scratchPool.Get().(*checkScratch)
	defer scratchPool.Put(sc)
	sc.preds = sc.preds[:0]
	sc.durable.reset()
	sc.ancestry.reset()
	sc.seenEp.reset()

	// surviving(line) = token now in NVM at the line's home controller.
	surviving := func(l mem.Line) mem.Token {
		return m.MCs[m.IL.Home(l)].NVM.Peek(l)
	}

	// fullyDurable memoizes whether every write of an epoch survived or
	// was legally overwritten by a later write to the same line.
	const (
		durUnknown uint8 = iota
		durYes
		durNo
	)
	var fullyDurable func(e persist.EpochID) bool
	fullyDurable = func(e persist.EpochID) bool {
		if v := sc.durable.get(e); v != durUnknown {
			return v == durYes
		}
		v := durYes // epochs without writes are trivially durable
		for tok := lg.EpochHead(e); tok != 0; tok = lg.EpochNext(tok) {
			line, _ := lg.TokenLine(tok)
			sv := surviving(line)
			if sv == 0 {
				v = durNo
				break
			}
			// The write survives if the line holds it or a write to the
			// same line recorded after it (coherence order is seq order).
			svSeq, ok := lg.TokenSeq(sv)
			if svLine, _ := lg.TokenLine(sv); !ok || svLine != line {
				v = durNo
				break
			}
			if wSeq, _ := lg.TokenSeq(tok); svSeq < wSeq {
				v = durNo
				break
			}
		}
		sc.durable.set(e, v)
		return v == durYes
	}

	// Lemma 1.1: committed epochs are fully durable.
	lg.CommittedEpochs(func(e persist.EpochID) {
		if !fullyDurable(e) {
			rep.fail("committed epoch %v lost a write", e)
		}
	})

	// Theorem 2: ancestry of every surviving epoch is fully durable.
	// sc.ancestry: 0 unknown, 1 ok, 2 bad, 3 visiting.
	var checkAncestry func(e persist.EpochID) bool
	checkAncestry = func(e persist.EpochID) bool {
		switch sc.ancestry.get(e) {
		case 1, 3: // visiting: the DAG is acyclic by construction (Lemma 0.1); treat as ok
			return true
		case 2:
			return false
		}
		sc.ancestry.set(e, 3)
		ok := true
		// Same-thread predecessor chain.
		if e.TS > 1 {
			prev := persist.EpochID{Thread: e.Thread, TS: e.TS - 1}
			if !fullyDurable(prev) {
				rep.fail("epoch %v survived but same-thread predecessor %v is not durable", e, prev)
				ok = false
			} else if !checkAncestry(prev) {
				ok = false
			}
		}
		// Cross-thread dependencies. sc.preds is a stack shared by the
		// recursion: this call's sources sit above start until it returns,
		// and are re-read by index because deeper calls may move the array.
		start := len(sc.preds)
		sc.preds = lg.AppendPredecessors(sc.preds, e)
		for i, end := start, len(sc.preds); i < end; i++ {
			src := sc.preds[i]
			if !fullyDurable(src) {
				rep.fail("epoch %v survived but dependency source %v is not durable", e, src)
				ok = false
			} else if !checkAncestry(src) {
				ok = false
			}
		}
		sc.preds = sc.preds[:start]
		if ok {
			sc.ancestry.set(e, 1)
		} else {
			sc.ancestry.set(e, 2)
		}
		return ok
	}

	sc.lines = lg.AppendLines(sc.lines[:0])
	for _, l := range sc.lines {
		rep.LinesChecked++
		sv := surviving(l)
		if sv == 0 {
			// Nothing persisted for this line: legal only if no
			// committed epoch wrote it, which Lemma 1.1 covers.
			continue
		}
		rec, ok := lg.TokenRec(sv)
		if !ok {
			rep.fail("line %#x holds token %d that was never written", l.Addr(), sv)
			continue
		}
		if wl, _ := lg.TokenLine(sv); wl != l {
			rep.fail("line %#x holds token %d belonging to line %#x", l.Addr(), sv, wl.Addr())
			continue
		}
		if sc.seenEp.get(rec.Epoch) == 0 {
			sc.seenEp.set(rec.Epoch, 1)
			rep.SurvivingEpochs++
		}
		checkAncestry(rec.Epoch)
	}
	return rep
}
