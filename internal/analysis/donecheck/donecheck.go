// Package donecheck verifies the Model continuation contract: every
// function that receives a `done sim.Cont` parameter must resume it
// exactly once on every path (internal/model/model.go: "they must resume
// it exactly once"). Zero-resume paths hang the simulated core forever;
// double-resume paths double-complete an operation and corrupt timing.
//
// A "consumption" of done is any use of it: resuming it
// (eng.Resume(done)), scheduling it (eng.ScheduleCont(when, done)), a
// handoff as an argument to another call (the callee inherits the
// obligation, e.g. m.Dfence(core, done)), a store into a variable or
// field for later resumption (c.dfence = stall{done: done}), or a
// function literal that captures done. Comparisons (done == x) and
// done.IsZero() probes do not consume it. Paths ending in panic or
// os.Exit are exempt.
//
// The continuation type is matched structurally — a named struct type
// called Cont — so fixtures need no non-stdlib imports.
package donecheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"asap/internal/analysis"
)

// New returns the donecheck analyzer.
func New() analysis.Analyzer { return checker{} }

type checker struct{}

func (checker) Name() string { return "donecheck" }

func (checker) Doc() string {
	return "every function taking a done sim.Cont parameter must resume or hand off done exactly once on every return path"
}

func (checker) Run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ft *ast.FuncType
			var body *ast.BlockStmt
			name := "function literal"
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ft, body, name = fn.Type, fn.Body, fn.Name.Name
			case *ast.FuncLit:
				ft, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil || ft.Params == nil {
				return true
			}
			for _, field := range ft.Params.List {
				if !isCont(pass.TypeOf(field.Type)) {
					continue
				}
				for _, nm := range field.Names {
					if nm.Name != "done" {
						continue
					}
					obj := pass.ObjectOf(nm)
					if obj == nil {
						continue
					}
					fc := &funcCheck{pass: pass, fname: name, obj: obj, reported: make(map[string]bool)}
					fc.collectAliases(body)
					out := fc.flowList(body.List, canZero)
					fc.exit(out, body.Rbrace)
				}
			}
			return true
		})
	}
}

// isCont reports whether t is the continuation type: a named struct type
// called Cont (internal/sim.Cont in the real tree).
func isCont(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Name() != "Cont" {
		return false
	}
	_, ok = n.Underlying().(*types.Struct)
	return ok
}

// mask is the set of possible done-consumption counts along the paths
// reaching a program point: zero, exactly one, or two-or-more.
type mask uint8

const (
	canZero mask = 1 << iota
	canOne
	canMany
)

// bump shifts every possible count up by one consumption.
func (m mask) bump() mask {
	var out mask
	if m&canZero != 0 {
		out |= canOne
	}
	if m&(canOne|canMany) != 0 {
		out |= canMany
	}
	return out
}

func (m mask) addN(n int) mask {
	for ; n > 0; n-- {
		m = m.bump()
	}
	return m
}

// funcCheck analyzes one function body for one done parameter.
type funcCheck struct {
	pass     *analysis.Pass
	fname    string
	obj      types.Object
	aliases  map[types.Object]bool // local closures that consume done
	aliasDef map[ast.Node]bool     // the defining FuncLits (not consumptions)
	reported map[string]bool
}

func (c *funcCheck) isDone(id *ast.Ident) bool {
	obj := c.pass.ObjectOf(id)
	return obj == c.obj || (obj != nil && c.aliases[obj])
}

// collectAliases registers local helper closures that capture done, like
// the ack/nack pattern in the memory controller:
//
//	ack := func() { ...; done() }
//
// Defining the closure is not a consumption; each use of ack afterwards
// consumes done once. Aliases chain (a closure capturing ack is itself
// an alias), so the scan iterates to a fixpoint.
func (c *funcCheck) collectAliases(body *ast.BlockStmt) {
	c.aliases = make(map[types.Object]bool)
	c.aliasDef = make(map[ast.Node]bool)
	for {
		added := false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				lit, ok := as.Rhs[i].(*ast.FuncLit)
				if !ok || !c.mentions(lit.Body) {
					continue
				}
				obj := c.pass.ObjectOf(id)
				if obj == nil || c.aliases[obj] {
					continue
				}
				c.aliases[obj] = true
				c.aliasDef[lit] = true
				added = true
			}
			return true
		})
		if !added {
			return
		}
	}
}

// mentions reports whether the subtree references the done parameter.
func (c *funcCheck) mentions(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && c.isDone(id) {
			found = true
		}
		return !found
	})
	return found
}

// count tallies the consumptions of done in a simple statement or
// expression: each identifier resolving to the parameter counts once,
// except bare mentions in ==/!= comparisons and done.IsZero() probes; a
// function literal capturing done counts once as a whole.
func (c *funcCheck) count(n ast.Node) int {
	if n == nil {
		return 0
	}
	cnt := 0
	guarded := make(map[ast.Node]bool)
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil {
			return false
		}
		if guarded[x] {
			return false
		}
		switch v := x.(type) {
		case *ast.FuncLit:
			if c.aliasDef[v] {
				return false // defining an alias closure is not a use
			}
			if c.mentions(v.Body) {
				cnt++
			}
			return false
		case *ast.SelectorExpr:
			if id, ok := v.X.(*ast.Ident); ok && v.Sel.Name == "IsZero" && c.isDone(id) {
				guarded[v.X] = true
			}
		case *ast.BinaryExpr:
			if v.Op == token.EQL || v.Op == token.NEQ {
				if id, ok := v.X.(*ast.Ident); ok && c.isDone(id) {
					guarded[v.X] = true
				}
				if id, ok := v.Y.(*ast.Ident); ok && c.isDone(id) {
					guarded[v.Y] = true
				}
			}
		case *ast.Ident:
			if c.isDone(v) {
				cnt++
			}
		}
		return true
	})
	return cnt
}

// exit validates the consumption mask at a return point.
func (c *funcCheck) exit(m mask, pos token.Pos) {
	if m == 0 {
		return
	}
	if m&canZero != 0 {
		c.reportOnce(pos, "done is never invoked on some path returning here")
	}
	if m&canMany != 0 {
		c.reportOnce(pos, "done may be invoked more than once on some path returning here")
	}
}

func (c *funcCheck) reportOnce(pos token.Pos, msg string) {
	key := c.pass.Fset.Position(pos).String() + msg
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.pass.Reportf(pos, "%s: %s", c.fname, msg)
}

func (c *funcCheck) flowList(stmts []ast.Stmt, in mask) mask {
	cur := in
	for _, s := range stmts {
		cur = c.flowStmt(s, cur)
	}
	return cur
}

// flowStmt propagates the consumption mask through one statement. A zero
// mask means the point is unreachable. Loops are run to a fixpoint
// (masks are monotone and saturate at "two or more", so three passes
// converge). Returns and terminal calls (panic, os.Exit) cut the flow.
func (c *funcCheck) flowStmt(s ast.Stmt, in mask) mask {
	if s == nil || in == 0 {
		return in
	}
	switch v := s.(type) {
	case *ast.ExprStmt:
		if isTerminalCall(v.X) {
			return 0
		}
		return in.addN(c.count(v.X))
	case *ast.ReturnStmt:
		m := in
		for _, r := range v.Results {
			m = m.addN(c.count(r))
		}
		c.exit(m, v.Pos())
		return 0
	case *ast.AssignStmt:
		out := in
		for _, r := range v.Rhs {
			out = out.addN(c.count(r))
		}
		return out
	case *ast.DeferStmt:
		return in.addN(c.count(v.Call))
	case *ast.GoStmt:
		return in.addN(c.count(v.Call))
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
		return in.addN(c.count(s))
	case *ast.BlockStmt:
		return c.flowList(v.List, in)
	case *ast.IfStmt:
		cur := c.flowStmt(v.Init, in)
		cur = cur.addN(c.count(v.Cond))
		thenOut := c.flowStmt(v.Body, cur)
		elseOut := cur
		if v.Else != nil {
			elseOut = c.flowStmt(v.Else, cur)
		}
		return thenOut | elseOut
	case *ast.ForStmt:
		cur := c.flowStmt(v.Init, in)
		cur = cur.addN(c.count(v.Cond))
		iter := cur
		for i := 0; i < 3; i++ {
			out := c.flowList(v.Body.List, iter)
			out = c.flowStmt(v.Post, out)
			out = out.addN(c.count(v.Cond))
			iter |= out
		}
		if v.Cond == nil && !hasLoopBreak(v.Body) {
			return 0 // for{}: leaves only via return/panic inside
		}
		return cur | iter
	case *ast.RangeStmt:
		cur := in.addN(c.count(v.X))
		iter := cur
		for i := 0; i < 3; i++ {
			iter |= c.flowList(v.Body.List, iter)
		}
		return cur | iter
	case *ast.SwitchStmt:
		cur := c.flowStmt(v.Init, in)
		cur = cur.addN(c.count(v.Tag))
		return c.flowCases(v.Body, cur)
	case *ast.TypeSwitchStmt:
		cur := c.flowStmt(v.Init, in)
		cur = c.flowStmt(v.Assign, cur)
		return c.flowCases(v.Body, cur)
	case *ast.SelectStmt:
		if len(v.Body.List) == 0 {
			return 0 // select{} blocks forever
		}
		var out mask
		for _, cc := range v.Body.List {
			comm := cc.(*ast.CommClause)
			cin := c.flowStmt(comm.Comm, in)
			out |= c.flowList(comm.Body, cin)
		}
		return out
	case *ast.LabeledStmt:
		return c.flowStmt(v.Stmt, in)
	case *ast.BranchStmt:
		return 0 // break/continue/goto: approximated as cutting this flow
	case *ast.EmptyStmt:
		return in
	default:
		return in.addN(c.count(s))
	}
}

// flowCases unions the outcomes of switch cases; without a default the
// switch may fall through untouched.
func (c *funcCheck) flowCases(body *ast.BlockStmt, in mask) mask {
	var out mask
	hasDefault := false
	for _, cc := range body.List {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		cin := in
		for _, e := range clause.List {
			cin = cin.addN(c.count(e))
		}
		if clause.List == nil {
			hasDefault = true
		}
		out |= c.flowList(clause.Body, cin)
	}
	if !hasDefault {
		out |= in
	}
	return out
}

// isTerminalCall reports whether the expression is a call that never
// returns: panic(...) or os.Exit(...).
func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fn.X.(*ast.Ident); ok {
			return pkg.Name == "os" && fn.Sel.Name == "Exit"
		}
	}
	return false
}

// hasLoopBreak reports whether the loop body can break out of the
// enclosing loop: an unlabeled break at this nesting level, or any
// labeled break inside nested loop/switch/select statements.
func hasLoopBreak(body *ast.BlockStmt) bool {
	found := false
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		switch v := n.(type) {
		case *ast.BranchStmt:
			if v.Tok == token.BREAK {
				found = true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// Unlabeled break inside binds to the inner statement; only
			// labeled breaks can escape to our loop.
			ast.Inspect(n, func(m ast.Node) bool {
				if b, ok := m.(*ast.BranchStmt); ok && b.Tok == token.BREAK && b.Label != nil {
					found = true
				}
				return !found
			})
			return false
		case *ast.FuncLit:
			return false // break inside a closure cannot escape it
		}
		return true
	}
	for _, s := range body.List {
		ast.Inspect(s, visit)
	}
	return found
}
