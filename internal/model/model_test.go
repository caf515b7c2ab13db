package model

import (
	"testing"

	"asap/internal/cache"
	"asap/internal/config"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
)

// newMCs builds cfg.MCs controllers with their NVM sized for testLines
// lines each: more than any test writes.
func newMCs(eng *sim.Engine, cfg config.Config, spec bool, st *stats.Set) []*persist.MC {
	mcs := make([]*persist.MC, cfg.MCs)
	for i := range mcs {
		mcs[i] = persist.NewMC(i, eng, cfg, spec, st)
		mcs[i].Reset(testLines)
		mcs[i].Register()
	}
	return mcs
}

const testLines = 1 << 12

// testEnv builds a minimal environment with real controllers.
func testEnv(t *testing.T, name string) (Env, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := config.Default()
	st := stats.New()
	mcs := newMCs(eng, cfg, Speculative(name), st)
	return Env{
		Eng:    eng,
		Cfg:    cfg,
		MCs:    mcs,
		IL:     mem.NewInterleaver(cfg.MCs, cfg.InterleaveBytes),
		Dir:    cache.NewDirectory(0),
		St:     st,
		Ledger: NopLedger{},
	}, eng
}

func TestNewAllModels(t *testing.T) {
	for _, name := range ExtendedNames() {
		env, _ := testEnv(t, name)
		m, err := New(name, env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() != name {
			t.Fatalf("Name() = %q, want %q", m.Name(), name)
		}
	}
	if _, err := New("bogus", Env{}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestSpeculativeFlag(t *testing.T) {
	for _, name := range ExtendedNames() {
		want := name == NameASAPEP || name == NameASAPRP
		if Speculative(name) != want {
			t.Errorf("Speculative(%s) = %v", name, Speculative(name))
		}
	}
}

// driveStoreFence runs store+dfence through a model directly, returning the
// simulated completion time.
func driveStoreFence(t *testing.T, name string, n int) sim.Cycles {
	t.Helper()
	env, eng := testEnv(t, name)
	m, err := New(name, env)
	if err != nil {
		t.Fatal(err)
	}
	doneCount := 0
	var next func(i int)
	next = func(i int) {
		if i >= n {
			m.Dfence(0, cont(eng, func() { doneCount++ }))
			return
		}
		m.Store(0, mem.Line(100+i), mem.Token(i+1), cont(eng, func() {
			m.Ofence(0, cont(eng, func() { next(i + 1) }))
		}))
	}
	next(0)
	eng.Run(10_000_000)
	if doneCount != 1 {
		t.Fatalf("%s: dfence never completed", name)
	}
	return eng.Now()
}

// TestDfenceDurability: for every model, a dfence completes and all stored
// lines are durable afterwards (in WPQ or NVM) — except eADR, whose
// persistence domain is the cache.
func TestDfenceDurability(t *testing.T) {
	for _, name := range ExtendedNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			env, eng := testEnv(t, name)
			m, err := New(name, env)
			if err != nil {
				t.Fatal(err)
			}
			fenced := false
			m.Store(0, 100, 1, cont(eng, func() {
				m.Store(0, 200, 2, cont(eng, func() {
					m.Dfence(0, cont(eng, func() { fenced = true }))
				}))
			}))
			eng.Run(10_000_000)
			if !fenced {
				t.Fatal("dfence never completed")
			}
			if name == NameEADR {
				return
			}
			for _, line := range []mem.Line{100, 200} {
				mc := env.MCs[env.IL.Home(line)]
				_, inWPQ := mc.WPQ.Contains(line)
				if !inWPQ && mc.NVM.Peek(line) == 0 {
					t.Errorf("line %d not durable after dfence", line)
				}
			}
		})
	}
}

// TestModelCostOrdering: more decoupled designs finish the same
// store+fence-heavy single-thread sequence no slower.
func TestModelCostOrdering(t *testing.T) {
	base := driveStoreFence(t, NameBaseline, 50)
	hops := driveStoreFence(t, NameHOPSRP, 50)
	asap := driveStoreFence(t, NameASAPRP, 50)
	eadr := driveStoreFence(t, NameEADR, 50)
	t.Logf("baseline=%d hops=%d asap=%d eadr=%d", base, hops, asap, eadr)
	if eadr > asap || asap > base {
		t.Errorf("cost ordering violated: eadr=%d asap=%d baseline=%d", eadr, asap, base)
	}
	// With zero work between fences there is nothing for HOPS's buffering
	// to overlap, so it may run marginally slower than the synchronous
	// baseline (flusher wake-up latency); allow 5%.
	if hops > base*105/100 {
		t.Errorf("HOPS (%d) should be within 5%% of baseline (%d) single-threaded", hops, base)
	}
}

// TestASAPEarlyFlushPath: with ofences but no dfence until the end, ASAP
// issues early flushes and creates undo records at the controllers.
func TestASAPEarlyFlushPath(t *testing.T) {
	env, eng := testEnv(t, NameASAPRP)
	m, _ := New(NameASAPRP, env)
	var chain func(i int)
	chain = func(i int) {
		if i >= 20 {
			m.Dfence(0, cont(eng, func() {}))
			return
		}
		m.Store(0, mem.Line(100+i), mem.Token(i+1), cont(eng, func() {
			m.Ofence(0, cont(eng, func() { chain(i + 1) }))
		}))
	}
	chain(0)
	eng.Run(10_000_000)
	if env.St.Get("totSpecWrites") == 0 {
		t.Error("no early flushes despite a 20-epoch chain")
	}
	if env.St.Get("totalUndo") == 0 {
		t.Error("no undo records created")
	}
	if env.St.Get("mcCommits") == 0 {
		t.Error("no commit messages sent")
	}
}

// TestHOPSNoSpeculation: HOPS must never mark flushes early or touch a
// recovery table.
func TestHOPSNoSpeculation(t *testing.T) {
	env, eng := testEnv(t, NameHOPSRP)
	m, _ := New(NameHOPSRP, env)
	var chain func(i int)
	chain = func(i int) {
		if i >= 20 {
			m.Dfence(0, cont(eng, func() {}))
			return
		}
		m.Store(0, mem.Line(100+i), mem.Token(i+1), cont(eng, func() {
			m.Ofence(0, cont(eng, func() { chain(i + 1) }))
		}))
	}
	chain(0)
	eng.Run(10_000_000)
	if env.St.Get("totSpecWrites") != 0 || env.St.Get("mcEarlyFlushes") != 0 {
		t.Error("HOPS issued early flushes")
	}
}

// TestPMEMSpecMisspeculation: cross-MC epoch chains must trigger
// mis-speculations on a 2-MC machine and none on 1 MC.
func TestPMEMSpecMisspeculation(t *testing.T) {
	run := func(mcs int) uint64 {
		eng := sim.NewEngine()
		cfg := config.Default()
		cfg.MCs = mcs
		st := stats.New()
		mcsArr := newMCs(eng, cfg, false, st)
		env := Env{
			Eng: eng, Cfg: cfg, MCs: mcsArr,
			IL:  mem.NewInterleaver(mcs, cfg.InterleaveBytes),
			Dir: cache.NewDirectory(0), St: st, Ledger: NopLedger{},
		}
		m, _ := New(NamePMEMSpec, env)
		var chain func(i int)
		chain = func(i int) {
			if i >= 30 {
				m.Dfence(0, cont(eng, func() {}))
				return
			}
			// Alternate controllers between epochs: lines 4 apart map to
			// different MCs with 256 B interleaving.
			m.Store(0, mem.Line(i*4), mem.Token(i+1), cont(eng, func() {
				m.Ofence(0, cont(eng, func() { chain(i + 1) }))
			}))
		}
		chain(0)
		eng.Run(0)
		return st.Get("specMisspeculations")
	}
	if got := run(2); got == 0 {
		t.Error("expected mis-speculations with 2 controllers")
	}
	if got := run(1); got != 0 {
		t.Errorf("1-MC run mis-speculated %d times; FIFO channel cannot reorder", got)
	}
}

// TestDPOResolvesFasterThanHOPS: with a cross-thread dependency, DPO's
// snooped broadcast resolves it without polling delay.
func TestDPOResolvesFasterThanHOPS(t *testing.T) {
	runDep := func(name string) sim.Cycles {
		env, eng := testEnv(t, name)
		m, _ := New(name, env)
		// Thread 0 writes and releases; thread 1 acquires (dependency),
		// writes, and dfences.
		var t1done bool
		m.Store(0, 100, 1, cont(eng, func() {
			m.Release(0, 500, cont(eng, func() {
				env.Dir.Write(0, 500, 1) // the release store on the lock line
				env.Dir.MarkRelease(0, 500, 1)
				// Thread 1 acquires.
				cf, _ := env.Dir.Read(1, 500, true)
				if cf != nil {
					m.Conflict(1, cf)
				}
				m.Store(1, 104, 2, cont(eng, func() {
					m.Dfence(1, cont(eng, func() { t1done = true }))
				}))
			}))
		}))
		eng.Run(10_000_000)
		if !t1done {
			t.Fatalf("%s: dependent dfence never completed", name)
		}
		return eng.Now()
	}
	hops := runDep(NameHOPSRP)
	dpo := runDep(NameDPO)
	t.Logf("hops=%d dpo=%d", hops, dpo)
	if dpo > hops {
		t.Errorf("DPO (%d) should resolve dependencies no slower than polling HOPS (%d)", dpo, hops)
	}
}

// TestEpochCommittedSemantics: committed queries answer correctly across
// retirement for the buffered models.
func TestEpochCommittedSemantics(t *testing.T) {
	for _, name := range []string{NameHOPSRP, NameASAPRP, NameDPO} {
		env, eng := testEnv(t, name)
		m, _ := New(name, env)
		fin := false
		m.Store(0, 100, 1, cont(eng, func() {
			m.Dfence(0, cont(eng, func() { fin = true }))
		}))
		eng.Run(10_000_000)
		if !fin {
			t.Fatalf("%s: dfence stuck", name)
		}
		if !m.EpochCommitted(persist.EpochID{Thread: 0, TS: 1}) {
			t.Errorf("%s: epoch 1 should be committed after dfence", name)
		}
		if m.EpochCommitted(persist.EpochID{Thread: 0, TS: m.CurrentTS(0)}) && name != NameDPO {
			// The open epoch is never committed for table-based models.
			t.Errorf("%s: open epoch reported committed", name)
		}
	}
}

// TestASAPNackFallback: a tiny recovery table forces NACKs; ASAP must fall
// back to conservative flushing and still complete with everything durable.
func TestASAPNackFallback(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config.Default()
	cfg.RTEntries = 2 // force pressure
	st := stats.New()
	mcs := newMCs(eng, cfg, true, st)
	env := Env{
		Eng: eng, Cfg: cfg, MCs: mcs,
		IL:  mem.NewInterleaver(cfg.MCs, cfg.InterleaveBytes),
		Dir: cache.NewDirectory(0), St: st, Ledger: NopLedger{},
	}
	m, _ := New(NameASAPRP, env)

	// A long chain of tiny epochs keeps several uncommitted at once, so
	// early flushes outrun the 2-entry table.
	fenced := false
	var chain func(i int)
	chain = func(i int) {
		if i >= 60 {
			m.Dfence(0, cont(eng, func() { fenced = true }))
			return
		}
		m.Store(0, mem.Line(100+i), mem.Token(i+1), cont(eng, func() {
			m.Ofence(0, cont(eng, func() { chain(i + 1) }))
		}))
	}
	chain(0)
	eng.Run(50_000_000)
	if !fenced {
		t.Fatal("dfence never completed under NACK pressure")
	}
	if st.Get("mcNacks") == 0 {
		t.Fatal("expected NACKs with a 2-entry recovery table")
	}
	if st.Get("pbNacks") == 0 {
		t.Fatal("persist buffer never observed a NACK")
	}
	// Every line still durable.
	for i := 0; i < 60; i++ {
		line := mem.Line(100 + i)
		mc := env.MCs[env.IL.Home(line)]
		if _, inWPQ := mc.WPQ.Contains(line); !inWPQ && mc.NVM.Peek(line) == 0 {
			t.Fatalf("line %d lost under NACK fallback", line)
		}
	}
}

// TestASAPNoEagerAblation: the ablation flag must suppress all early
// flushes.
func TestASAPNoEagerAblation(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config.Default()
	cfg.ASAPNoEager = true
	st := stats.New()
	mcs := newMCs(eng, cfg, true, st)
	env := Env{
		Eng: eng, Cfg: cfg, MCs: mcs,
		IL:  mem.NewInterleaver(cfg.MCs, cfg.InterleaveBytes),
		Dir: cache.NewDirectory(0), St: st, Ledger: NopLedger{},
	}
	m, _ := New(NameASAPRP, env)
	done := false
	var chain func(i int)
	chain = func(i int) {
		if i >= 20 {
			m.Dfence(0, cont(eng, func() { done = true }))
			return
		}
		m.Store(0, mem.Line(100+i), mem.Token(i+1), cont(eng, func() {
			m.Ofence(0, cont(eng, func() { chain(i + 1) }))
		}))
	}
	chain(0)
	eng.Run(50_000_000)
	if !done {
		t.Fatal("no-eager ASAP did not complete")
	}
	if st.Get("totSpecWrites") != 0 || st.Get("totalUndo") != 0 {
		t.Fatalf("ablation leaked speculation: spec=%d undo=%d",
			st.Get("totSpecWrites"), st.Get("totalUndo"))
	}
}

// TestVorpalBroadcastProgress: parked flushes must be released by the
// periodic broadcast, and the broadcast must stop once idle (or machines
// would never drain).
func TestVorpalBroadcastProgress(t *testing.T) {
	env, eng := testEnv(t, NameVorpal)
	m, _ := New(NameVorpal, env)
	done := false
	var chain func(i int)
	chain = func(i int) {
		if i >= 10 {
			m.Dfence(0, cont(eng, func() { done = true }))
			return
		}
		m.Store(0, mem.Line(i*4), mem.Token(i+1), cont(eng, func() { // alternate MCs
			m.Ofence(0, cont(eng, func() { chain(i + 1) }))
		}))
	}
	chain(0)
	end := eng.Run(50_000_000)
	if !done {
		t.Fatal("vorpal never drained")
	}
	if env.St.Get("vorpalParked") == 0 {
		t.Error("expected flushes parked behind the clock broadcast")
	}
	if env.St.Get("vorpalBroadcasts") == 0 {
		t.Error("broadcast never ran")
	}
	if eng.Pending() != 0 {
		t.Errorf("events still pending after drain at %d (broadcast leak?)", end)
	}
}

// TestStrandWeaverConcurrentStrands: two strands with interleaved epoch
// chains must drain concurrently — faster than the same chain in one strand.
func TestStrandWeaverConcurrentStrands(t *testing.T) {
	run := func(strands bool) sim.Cycles {
		env, eng := testEnv(t, NameStrandWeaver)
		m, _ := New(NameStrandWeaver, env)
		sw := m.(*StrandWeaver)
		done := false
		var chain func(i int)
		chain = func(i int) {
			if i >= 40 {
				m.Dfence(0, cont(eng, func() { done = true }))
				return
			}
			if strands && i%2 == 0 {
				sw.Strand(0)
			}
			m.Store(0, mem.Line(100+i), mem.Token(i+1), cont(eng, func() {
				m.Ofence(0, cont(eng, func() { chain(i + 1) }))
			}))
		}
		chain(0)
		eng.Run(50_000_000)
		if !done {
			t.Fatal("strandweaver did not drain")
		}
		return eng.Now()
	}
	mono := run(false)
	multi := run(true)
	t.Logf("single-strand=%d multi-strand=%d", mono, multi)
	if multi >= mono {
		t.Errorf("strands (%d) should beat a single strand (%d): epochs flush concurrently", multi, mono)
	}
}

// TestStrandWeaverDependency: a cross-thread dependency still orders
// strands conservatively.
func TestStrandWeaverDependency(t *testing.T) {
	env, eng := testEnv(t, NameStrandWeaver)
	m, _ := New(NameStrandWeaver, env)
	done := false
	m.Store(0, 100, 1, cont(eng, func() {
		m.Release(0, 500, cont(eng, func() {
			env.Dir.Write(0, 500, 1) // the release store on the lock line
			env.Dir.MarkRelease(0, 500, 1)
			cf, _ := env.Dir.Read(1, 500, true)
			if cf != nil {
				m.Conflict(1, cf)
			}
			m.Store(1, 104, 2, cont(eng, func() {
				m.Dfence(1, cont(eng, func() { done = true }))
			}))
		}))
	}))
	eng.Run(50_000_000)
	if !done {
		t.Fatal("dependent thread never drained")
	}
	if env.St.Get("interTEpochConflict") != 1 {
		t.Fatalf("deps = %d, want 1", env.St.Get("interTEpochConflict"))
	}
}
