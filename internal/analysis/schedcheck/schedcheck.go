// Package schedcheck keeps the engine's event queue private: appending to
// one of an Engine's queue slices (queueFields: the timing wheel's node
// slab, the overflow heap) anywhere outside internal/sim bypasses the
// (when, seq) ordering that makes dispatch deterministic — events must
// enter through ScheduleOp/AfterOp/ScheduleCont, which assign the sequence
// number that breaks timestamp ties and link the event into its wheel
// slot or heap position.
//
// The Engine type is matched structurally (a named struct type called
// Engine with a ScheduleOp method), so fixtures need no non-stdlib
// imports.
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
	return "events enter the engine only via its schedule methods, never by a direct append to its queue"
}

func (c checker) Run(pass *analysis.Pass) {
	if strings.HasSuffix(pass.Path, "internal/sim") {
		return // the engine owns its queue
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				c.checkEventsAppend(pass, call)
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
		"direct append to %s bypasses the engine's (when, seq) event-queue ordering: schedule through ScheduleOp/AfterOp/ScheduleCont",
		types.ExprString(call.Args[0]))
}

// isEngine matches any named struct type called Engine that has a
// ScheduleOp method, directly or behind a pointer — internal/sim.Engine in
// the real tree, a local stand-in in fixtures.
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
		if n.Method(i).Name() == "ScheduleOp" {
			return true
		}
	}
	return false
}
