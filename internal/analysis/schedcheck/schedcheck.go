// Package schedcheck enforces the event-scheduler access discipline that
// keeps the zero-allocation hot path honest:
//
//  1. The engine's event queue is private. Appending to one of an
//     Engine's queue slices (queueFields: the timing wheel's node slab,
//     the overflow heap) anywhere outside internal/sim bypasses the
//     (when, seq, sub) ordering that makes dispatch deterministic — events
//     must enter through At/After/ScheduleOp/AfterOp, which assign the
//     sequence number that breaks timestamp ties and link the event into
//     its wheel slot or heap position.
//
//  2. In the packages converted to typed events (internal/machine,
//     internal/persist), the closure-form After/At calls allocate a
//     closure per event and are reserved for cold paths. Each surviving
//     call site must carry an //asaplint:ignore schedcheck directive
//     naming why it is cold; an unannotated closure schedule is treated
//     as an accidental hot-path regression.
//
// The Engine type is matched structurally (a named struct type called
// Engine with an After method), so fixtures need no non-stdlib imports.
package schedcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"asap/internal/analysis"
)

// New returns the schedcheck analyzer.
func New() analysis.Analyzer { return checker{} }

type checker struct{}

func (checker) Name() string { return "schedcheck" }

func (checker) Doc() string {
	return "events enter the engine only via its schedule methods; converted packages (machine, persist) must use the typed AfterOp/ScheduleOp form except on annotated cold paths"
}

// convertedPkgs are the packages whose hot paths were rewritten to the
// typed-event form; closure-form After/At there needs a cold-path
// annotation.
var convertedPkgs = []string{
	"internal/machine",
	"internal/persist",
}

func (c checker) Run(pass *analysis.Pass) {
	insideSim := strings.HasSuffix(pass.Path, "internal/sim")
	converted := false
	for _, p := range convertedPkgs {
		if strings.HasSuffix(pass.Path, p) {
			converted = true
			break
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !insideSim {
				c.checkEventsAppend(pass, call)
			}
			if converted {
				c.checkClosureSchedule(pass, call)
			}
			return true
		})
	}
}

// queueFields are the Engine's event-queue slices: the timing wheel's
// node slab and the overflow heap.
var queueFields = map[string]bool{"nodes": true, "overflow": true}

// checkEventsAppend flags append(e.f, ...) where e is a sim.Engine and f
// one of its queueFields. The fields are unexported, so the compiler
// already rejects this outside the sim package; the analyzer keeps the
// invariant explicit so that exporting a slice (or embedding the engine)
// can never quietly open a scheduling side door.
func (c checker) checkEventsAppend(pass *analysis.Pass, call *ast.CallExpr) {
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" || len(call.Args) == 0 {
		return
	}
	sel, ok := call.Args[0].(*ast.SelectorExpr)
	if !ok || !queueFields[sel.Sel.Name] || !isEngine(pass.TypeOf(sel.X)) {
		return
	}
	pass.Reportf(call.Pos(),
		"direct append to %s bypasses the engine's (when, seq, sub) event-queue ordering: schedule through At/After/ScheduleOp/AfterOp",
		types.ExprString(call.Args[0]))
}

// checkClosureSchedule flags closure-form After/At calls on an Engine in
// a converted package.
func (c checker) checkClosureSchedule(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if name != "After" && name != "At" {
		return
	}
	if !isEngine(pass.TypeOf(sel.X)) {
		return
	}
	pass.Reportf(call.Pos(),
		"closure-form %s.%s allocates per event on a converted package's path: use %s with a typed event kind, or annotate a cold path with //asaplint:ignore schedcheck <reason>",
		types.ExprString(sel.X), name, typedForm(name))
}

func typedForm(name string) string {
	if name == "After" {
		return "AfterOp"
	}
	return "ScheduleOp"
}

// isEngine matches any named struct type called Engine that has an After
// method, directly or behind a pointer — internal/sim.Engine in the real
// tree, a local stand-in in fixtures.
func isEngine(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Name() != "Engine" {
		return false
	}
	if _, ok := n.Underlying().(*types.Struct); !ok {
		return false
	}
	for i := 0; i < n.NumMethods(); i++ {
		if n.Method(i).Name() == "After" {
			return true
		}
	}
	return false
}
