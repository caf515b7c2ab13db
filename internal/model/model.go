// Package model implements the persistence architectures the ASAP paper
// evaluates (§VII): the synchronous Intel baseline (clwb+sfence), HOPS with
// epoch or release persistency, ASAP with epoch or release persistency, and
// an eADR/BBB ideal, plus the related-work designs of Table IV. All models
// sit behind one Model interface driven by the machine (package machine),
// which feeds them the program's stores, fences and synchronization
// operations and reports coherence conflicts. Every persist-buffered
// design — ASAP, HOPS, LB++, DPO, LRP, StrandWeaver and Vorpal — embeds
// the one epoch flusher (flusher.go) and supplies only its policy: ASAP
// differs from HOPS in the few flushPolicy methods it overrides.
package model

import (
	"fmt"
	"slices"

	"asap/internal/cache"
	"asap/internal/config"
	"asap/internal/mem"
	"asap/internal/obs"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
)

// Ledger receives ground-truth notifications used by the crash checker: the
// epoch each persistent write was issued under, the cross-thread dependency
// edges each model created, and epoch commits. The machine implements it.
type Ledger interface {
	// RecordWrite logs that a persistent write of token to line entered
	// the persist path under epoch e.
	RecordWrite(e persist.EpochID, line mem.Line, token mem.Token)
	// DepCreated logs a dependency: dst must not survive a crash unless
	// src does.
	DepCreated(src, dst persist.EpochID)
	// EpochCommitted logs that epoch e committed (guaranteed durable).
	EpochCommitted(e persist.EpochID)
}

// NopLedger discards all notifications.
type NopLedger struct{}

func (NopLedger) RecordWrite(persist.EpochID, mem.Line, mem.Token) {}
func (NopLedger) DepCreated(persist.EpochID, persist.EpochID)      {}
func (NopLedger) EpochCommitted(persist.EpochID)                   {}

// Env is everything a model needs from the machine.
type Env struct {
	Eng    *sim.Engine
	Cfg    config.Config
	MCs    []*persist.MC
	IL     *mem.Interleaver
	Dir    *cache.Directory
	St     *stats.Set
	Ledger Ledger

	// Link carries every model→controller message (flushes, commits) at
	// its modeled latency, reproducing the models' former event schedule
	// exactly; the controllers' replies come back through their own reply
	// queues. New defaults it to a link over Eng when left nil.
	Link *persist.Link
}

// op is the model's receiver handle. New registers the model right after
// the controllers and the link (persist.MC.Register), so the handle is the
// controller count plus one and no model stores it.
func (env *Env) op() sim.Op { return sim.Op(len(env.MCs) + 1) }

// Model is one persistence architecture. Methods taking a done continuation
// may delay it to stall the core; they must resume it exactly once — at
// once through Engine.Resume, or later from a parked stall or through
// Engine.ScheduleCont. Conflict and Acquire bookkeeping never stalls the
// calling core directly.
type Model interface {
	Name() string

	// RunEvent dispatches the model's typed events. Every model is its
	// machine's model receiver, so one that schedules none panics here.
	sim.EventOp

	// Store enters a persistent write into the model's persist path.
	Store(core int, line mem.Line, token mem.Token, done sim.Cont)
	// Ofence orders earlier writes of the thread before later ones.
	Ofence(core int, done sim.Cont)
	// Dfence additionally guarantees earlier writes are durable.
	Dfence(core int, done sim.Cont)
	// Release/Acquire are the one-sided synchronization barriers of
	// release persistency applied to lock/flag line.
	Release(core int, line mem.Line, done sim.Cont)
	Acquire(core int, line mem.Line)

	// Conflict reports a coherence event where the accessed line was
	// last modified by another core; the model decides whether it is a
	// cross-thread persist dependency.
	Conflict(core int, cf *cache.Conflict)

	// CurrentTS returns the core's open epoch timestamp.
	CurrentTS(core int) uint64
	// EpochCommitted reports whether epoch e is guaranteed durable.
	EpochCommitted(e persist.EpochID) bool

	// StartDrain is called at end-of-trace: done resumes when everything
	// the core wrote is durable (dfence semantics).
	StartDrain(core int, done sim.Cont)

	// PBOccupancy and PBBlocked feed the periodic sampler (Figures 3 and
	// 11). Models without persist buffers report 0/false.
	PBOccupancy(core int) int
	PBBlocked(core int) bool
	// PBHasLine reports whether the core's persist buffer still holds an
	// unpersisted write to the line; the machine's write-back buffer
	// (§V-F) parks LLC evictions of such lines.
	PBHasLine(core int, line mem.Line) bool

	// Stats returns the model's stat set (shared with Env.St).
	Stats() *stats.Set
}

// Traced is implemented by models that can emit trace events. The machine
// calls AttachTracer before the simulation starts; models without the
// method simply stay silent in traces.
type Traced interface {
	AttachTracer(tr obs.Tracer)
}

// EpochTabled is implemented by models with per-core epoch tables; the
// machine's timeline sampler uses it to record epoch-table size. Models
// without the method report no epoch-table columns.
type EpochTabled interface {
	ETLen(core int) int
}

// Names of the six evaluated designs, plus the two related-work designs
// implemented to make Table IV quantitative.
const (
	NameBaseline     = "baseline"
	NameHOPSEP       = "hops_ep"
	NameHOPSRP       = "hops_rp"
	NameASAPEP       = "asap_ep"
	NameASAPRP       = "asap_rp"
	NameEADR         = "eadr"
	NameDPO          = "dpo"
	NamePMEMSpec     = "pmem_spec"
	NameLBPP         = "lbpp"
	NameLRP          = "lrp"
	NameVorpal       = "vorpal"
	NameStrandWeaver = "strandweaver"
)

// Known reports whether name is one of the implemented designs (the
// evaluated six plus the related-work set) without building a model or
// allocating — asapd validates request specs against it.
func Known(name string) bool { return slices.Contains(names[:], name) }

// Speculative reports whether the named model needs recovery tables at the
// memory controllers.
func Speculative(name string) bool {
	return name == NameASAPEP || name == NameASAPRP
}

// New builds the named model and registers it on env.Eng, whose receiver
// table must hold env's controllers and link and nothing else. When
// env.Link is nil, New builds the link and registers it first.
func New(name string, env Env) (Model, error) {
	if env.Ledger == nil {
		env.Ledger = NopLedger{}
	}
	ownLink := env.Link == nil
	if ownLink {
		env.Link = persist.NewLink(env.Eng, env.Cfg, env.MCs)
	}
	var m Model
	switch name {
	case NameBaseline:
		m = newBaseline(env)
	case NameHOPSEP:
		m = newHOPS(env, false)
	case NameHOPSRP:
		m = newHOPS(env, true)
	case NameASAPEP:
		m = newASAP(env, false)
	case NameASAPRP:
		m = newASAP(env, true)
	case NameEADR:
		m = newEADR(env)
	case NameDPO:
		m = newDPO(env)
	case NamePMEMSpec:
		m = newPMEMSpec(env)
	case NameLBPP:
		m = newLBPP(env)
	case NameLRP:
		m = newLRP(env)
	case NameVorpal:
		m = newVorpal(env)
	case NameStrandWeaver:
		m = newStrandWeaver(env)
	default:
		return nil, fmt.Errorf("model: unknown model %q (have %v)", name, AllNames())
	}
	if ownLink {
		env.Link.Register()
	}
	if env.Eng.RegisterOp(m) != env.op() {
		panic("model: " + name + " registered other than right after its controllers and link")
	}
	// The model is the one replier of its machine: every controller
	// answers flushes (and commits) to it.
	if rp, ok := m.(persist.FlushReplier); ok {
		for _, mc := range env.MCs {
			mc.Connect(rp)
		}
	}
	return m, nil
}

// names lists every implemented design: the six the paper evaluates, in
// its presentation order (Figure 8, left to right), then the related-work
// designs built for the quantitative Table IV comparison.
var names = [...]string{
	NameBaseline, NameHOPSEP, NameHOPSRP, NameASAPEP, NameASAPRP, NameEADR,
	NameLBPP, NameDPO, NameLRP, NameVorpal, NameStrandWeaver, NamePMEMSpec,
}

// numEvaluated is the number of names the paper evaluates.
const numEvaluated = 6

// AllNames lists the six models the paper evaluates, in its presentation
// order (Figure 8, left to right).
func AllNames() []string { return slices.Clone(names[:numEvaluated]) }

// ExtendedNames adds the related-work designs built for the quantitative
// Table IV comparison (lbpp, dpo, lrp, vorpal, strandweaver, pmem_spec).
func ExtendedNames() []string { return slices.Clone(names[:]) }

// flushIssuePace is the minimum spacing between flush issues from one
// persist buffer (models a single flush port).
const flushIssuePace sim.Cycles = 4
