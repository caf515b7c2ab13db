package crash

import (
	"fmt"
	"slices"
	"testing"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/mem"
	"asap/internal/model"
	"asap/internal/trace"
)

// buildMachine runs a tiny two-thread trace to completion and drains, so
// tests can then corrupt the NVM image in targeted ways.
func buildMachine(t *testing.T) *machine.Machine {
	t.Helper()
	tr := &trace.Trace{Name: "check"}
	for th := 0; th < 2; th++ {
		var b trace.Builder
		for i := 0; i < 40; i++ {
			b.StoreP(uint64(1<<30 + th*4096 + (i%8)*64))
			if i%4 == 3 {
				b.Ofence()
			}
		}
		b.Dfence()
		tr.Threads = append(tr.Threads, b.Ops())
	}
	m, err := machine.New(config.Default(), model.NameASAPRP, tr)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(0)
	for _, mc := range m.MCs {
		mc.CrashFlush()
	}
	if rep := Check(m); !rep.OK {
		t.Fatalf("clean run must verify: %v", rep.Problems)
	}
	return m
}

// TestCheckDetectsForeignToken: a token placed on the wrong line is flagged,
// and the committed epoch whose write it displaced counts as having lost
// that write — a foreign token never stands in for a later write to the
// line, whatever its record position.
func TestCheckDetectsForeignToken(t *testing.T) {
	m := buildMachine(t)
	var lineA, lineB mem.Line
	m.Ledger.Lines(func(l mem.Line, ws []machine.WriteRec) {
		if lineA == 0 {
			lineA = l
		} else if lineB == 0 && m.IL.Home(l) == m.IL.Home(lineA) {
			lineB = l
		}
	})
	if lineB == 0 {
		t.Skip("no two lines on one controller")
	}
	// Write lineB's surviving token onto lineA.
	mc := m.MCs[m.IL.Home(lineA)]
	displaced, _ := m.Ledger.TokenRec(mc.NVM.Peek(lineA))
	mc.NVM.Write(lineA, mc.NVM.Peek(lineB))
	rep := Check(m)
	if rep.OK {
		t.Fatal("foreign token not detected")
	}
	lost := fmt.Sprintf("committed epoch %v lost a write", displaced.Epoch)
	if !m.Ledger.IsCommitted(displaced.Epoch) || !slices.Contains(rep.Problems, lost) {
		t.Fatalf("displaced write of %v not reported lost: %q", displaced.Epoch, rep.Problems)
	}
}

// TestCheckDetectsUnknownToken: a token that was never written is flagged.
func TestCheckDetectsUnknownToken(t *testing.T) {
	m := buildMachine(t)
	var line mem.Line
	m.Ledger.Lines(func(l mem.Line, _ []machine.WriteRec) {
		if line == 0 {
			line = l
		}
	})
	m.MCs[m.IL.Home(line)].NVM.Write(line, 999_999_999)
	if rep := Check(m); rep.OK {
		t.Fatal("unknown token not detected")
	}
}

// TestCheckDetectsRolledBackPrefix: reverting one line to an old token while
// the same epoch's other writes survive violates Lemma 1.1.
func TestCheckDetectsRolledBackPrefix(t *testing.T) {
	m := buildMachine(t)
	var victim mem.Line
	var oldTok mem.Token
	m.Ledger.Lines(func(l mem.Line, ws []machine.WriteRec) {
		if victim != 0 || len(ws) < 2 {
			return
		}
		if m.Ledger.IsCommitted(ws[len(ws)-1].Epoch) {
			victim = l
			oldTok = ws[0].Token
		}
	})
	if victim == 0 {
		t.Skip("no multi-write committed line")
	}
	m.MCs[m.IL.Home(victim)].NVM.Write(victim, oldTok)
	if rep := Check(m); rep.OK {
		t.Fatal("rolled-back committed write not detected")
	}
}

// TestReportCapsProblems: a heavily corrupted image doesn't flood.
func TestReportCapsProblems(t *testing.T) {
	m := buildMachine(t)
	m.Ledger.Lines(func(l mem.Line, _ []machine.WriteRec) {
		m.MCs[m.IL.Home(l)].NVM.Write(l, 0)
	})
	rep := Check(m)
	if rep.OK {
		t.Fatal("zeroed image verified")
	}
	if len(rep.Problems) > 32 {
		t.Fatalf("problem list not capped: %d", len(rep.Problems))
	}
	if rep.LinesChecked == 0 {
		t.Fatal("LinesChecked not reported")
	}
}

// TestCampaignReportsRuns: campaign accounting sanity.
func TestCampaignReportsRuns(t *testing.T) {
	tr := depTrace(2, 40, 3)
	res, err := Campaign(config.Default(), model.NameASAPRP, tr, 5, 17)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 5 || res.Crashes == 0 || res.MaxCycles == 0 {
		t.Fatalf("campaign accounting wrong: %+v", res)
	}
	if res.String() == "" {
		t.Fatal("empty campaign summary")
	}
}

// TestSurvivingEpochsCounted: the report counts distinct surviving epochs.
func TestSurvivingEpochsCounted(t *testing.T) {
	m := buildMachine(t)
	rep := Check(m)
	if rep.SurvivingEpochs == 0 {
		t.Fatal("no surviving epochs after a clean run")
	}
}
