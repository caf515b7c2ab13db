package model

import (
	"fmt"
	"slices"
	"testing"

	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/trace"
	"asap/internal/workload"
)

// swShadow rebuilds the maps StrandWeaver kept before its bookkeeping
// moved onto the strand epochs: retired[e] and waiters[src]. It is the
// model's Ledger, and the model reports every dependency and every commit
// exactly where it used to update those maps, so the shadow follows the
// old update rules op for op. At each report it also checks the derived
// retired predicate against the map.
type swShadow struct {
	t       *testing.T
	m       *StrandWeaver
	retired map[persist.EpochID]bool
	waiters map[persist.EpochID][]persist.EpochID
	deps    int
}

func (s *swShadow) RecordWrite(persist.EpochID, mem.Line, mem.Token) {}

func (s *swShadow) DepCreated(src, dst persist.EpochID) {
	s.waiters[src] = append(s.waiters[src], dst)
	s.deps++
}

func (s *swShadow) EpochCommitted(e persist.EpochID) {
	s.retired[e] = true
	delete(s.waiters, e)
	if !s.m.EpochCommitted(e) {
		s.t.Fatalf("epoch %v retired, but the predicate says it is live", e)
	}
}

// check compares the per-epoch waiter lists with the shadow's map: every
// live epoch carries exactly the waiters the map lists for it, in order,
// and the map lists waiters only for live epochs. A live epoch must read
// as unretired in both.
func (s *swShadow) check(step string) {
	live := 0
	for th, c := range s.m.sw {
		for _, st := range c.strands {
			for _, e := range st.epochs {
				id := persist.EpochID{Thread: th, TS: e.ts}
				if !slices.Equal(e.waiters, s.waiters[id]) {
					s.t.Fatalf("%s: epoch %v waiters %v, the map lists %v", step, id, e.waiters, s.waiters[id])
				}
				if s.m.EpochCommitted(id) || s.retired[id] {
					s.t.Fatalf("%s: live epoch %v reads as retired (predicate %v, map %v)", step, id, s.m.EpochCommitted(id), s.retired[id])
				}
				if len(e.waiters) > 0 {
					live++
				}
			}
		}
	}
	if live != len(s.waiters) {
		s.t.Fatalf("%s: the map lists waiters for %d epochs, the live epochs carry them for %d", step, len(s.waiters), live)
	}
}

// swDriver replays a trace through a StrandWeaver the way the machine
// does, minus caches and lock mutual exclusion: loads, stores, acquires
// and releases go through the coherence directory, whose conflicts reach
// the model, and every op resumes its core one cycle later.
type swDriver struct {
	s       *swShadow
	env     Env
	ops     [][]trace.Op
	pc      []int
	relLine []mem.Line
	relTS   []uint64
	token   mem.Token
	queries int
	done    int
}

const (
	swStep    = iota // run core arg's next op
	swNext           // resume core arg: step it one cycle later
	swRelease        // core arg's release work finished: store and tag the lock line
	swDone           // core arg drained
)

func (d *swDriver) RunEvent(kind int, arg uint64) {
	core := int(arg)
	switch kind {
	case swStep:
		d.step(core)
	case swNext:
		d.env.Eng.AfterOp(1, d, swStep, arg)
	case swRelease:
		d.access(core, d.relLine[core], true, false)
		d.env.Dir.MarkRelease(core, d.relLine[core], d.relTS[core])
		d.env.Eng.AfterOp(1, d, swStep, arg)
	case swDone:
		d.done++
	}
}

// access runs one directory access and reports its conflict. Before an
// acquire-on-release conflict reaches the model, the retired predicate
// must agree with the map on the dependency's source.
func (d *swDriver) access(core int, line mem.Line, write, acq bool) {
	var cf *cache.Conflict
	if write {
		cf, _, _ = d.env.Dir.Write(core, line, d.s.m.CurrentTS(core))
	} else {
		cf, _ = d.env.Dir.Read(core, line, acq)
	}
	if cf == nil {
		return
	}
	if cf.AcquireOnRelease {
		src := persist.EpochID{Thread: cf.Writer, TS: cf.WriterTS}
		if got, want := d.s.m.EpochCommitted(src), d.s.retired[src]; got != want {
			d.s.t.Fatalf("retired(%v) = %v, the map says %v", src, got, want)
		}
		d.queries++
	}
	d.s.m.Conflict(core, cf)
}

func (d *swDriver) step(core int) {
	d.s.check(fmt.Sprintf("cycle %d core %d op %d", d.env.Eng.Now(), core, d.pc[core]))
	m, eng := d.s.m, d.env.Eng
	next := eng.Cont(d, swNext, uint64(core))
	if d.pc[core] >= len(d.ops[core]) {
		m.StartDrain(core, eng.Cont(d, swDone, uint64(core)))
		return
	}
	op := d.ops[core][d.pc[core]]
	d.pc[core]++
	line := mem.LineOf(op.Addr)
	switch op.Kind {
	case trace.OpCompute:
		eng.AfterOp(sim.Cycles(op.N), d, swStep, uint64(core))
	case trace.OpLoad:
		d.access(core, line, false, false)
		eng.Resume(next)
	case trace.OpStore:
		d.access(core, line, true, false)
		if !op.Persistent {
			eng.Resume(next)
			return
		}
		d.token++
		m.Store(core, line, d.token, next)
	case trace.OpOfence:
		m.Ofence(core, next)
	case trace.OpDfence:
		m.Dfence(core, next)
	case trace.OpAcquire:
		d.access(core, line, false, true)
		m.Acquire(core, line)
		eng.Resume(next)
	case trace.OpRelease:
		d.relLine[core], d.relTS[core] = line, m.CurrentTS(core)
		m.Release(core, line, eng.Cont(d, swRelease, uint64(core)))
	case trace.OpStrand:
		m.Strand(core)
		eng.Resume(next)
	}
}

// TestStrandWeaverDifferential replays strand-annotated traces
// (Params.Strands) through StrandWeaver and compares, after every op, the
// waiter lists now kept on each strand epoch, and at every dependency
// query and commit the derived "retired" predicate, against the maps the
// model used to keep (swShadow). No crash campaign emits OpStrand, so this
// is the check on that path.
func TestStrandWeaverDifferential(t *testing.T) {
	for _, wl := range []string{"cceh", "fast_fair", "dash_eh", "p_masstree"} {
		t.Run(wl, func(t *testing.T) {
			tr, err := workload.Generate(wl, workload.Params{Threads: 4, OpsPerThread: 120, Seed: 3, Strands: true})
			if err != nil {
				t.Fatal(err)
			}
			env, eng := testEnv(t, NameStrandWeaver)
			s := &swShadow{t: t, retired: map[persist.EpochID]bool{}, waiters: map[persist.EpochID][]persist.EpochID{}}
			env.Ledger = s
			mdl, err := New(NameStrandWeaver, env)
			if err != nil {
				t.Fatal(err)
			}
			s.m = mdl.(*StrandWeaver)
			d := &swDriver{s: s, env: env, ops: tr.Threads, pc: make([]int, tr.NumThreads()),
				relLine: make([]mem.Line, tr.NumThreads()), relTS: make([]uint64, tr.NumThreads())}
			for c := range tr.Threads {
				eng.AfterOp(0, d, swStep, uint64(c))
			}
			eng.Run(0)
			if d.done != tr.NumThreads() {
				t.Fatalf("%d of %d cores drained", d.done, tr.NumThreads())
			}
			s.check("end of run")
			if env.St.Get("swStrands") == 0 || s.deps == 0 || d.queries == 0 {
				t.Fatalf("trace exercised %d strands, %d dependencies and %d retired queries; want each > 0",
					env.St.Get("swStrands"), s.deps, d.queries)
			}
			t.Logf("%d strands, %d dependencies, %d retired queries, %d epochs retired",
				env.St.Get("swStrands"), s.deps, d.queries, len(s.retired))
		})
	}
}
