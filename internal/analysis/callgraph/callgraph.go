// Package callgraph builds a module-wide call graph over the packages
// the asaplint loader produces, using nothing but go/ast and go/types.
// It is the shared substrate of the whole-program analyzers: alloccheck
// walks it to prove //asap:hot functions transitively allocation-free,
// and domaincheck walks it to scope event callbacks to their owning
// component.
//
// The graph is a conservative over-approximation:
//
//   - Static calls (package functions, concrete methods) resolve to
//     exactly one callee.
//   - Interface method calls resolve to the matching method of every
//     named type in the module that implements the interface — class
//     hierarchy analysis, with no attempt to narrow by data flow. A
//     call through an interface with no module implementation resolves
//     to nothing and is classified External (the callee's body is
//     outside the module, so nothing can be proven about it).
//   - Function literals get their own node, attached to the enclosing
//     function; creating a closure adds an edge from the encloser, on
//     the grounds that a closure is usually created to be called.
//   - Calls through function-typed values (fields, variables,
//     parameters) are Dynamic: the target set is unknown, so the graph
//     records the site and resolves no callee. Analyzers that need
//     soundness treat Dynamic sites as "anything could happen".
//
// Nodes, edges and call lists are all in deterministic order (packages
// sorted by import path, files by name, declarations by position), so
// analyzer output is reproducible run to run.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"asap/internal/analysis"
)

// CallKind classifies one call site.
type CallKind int

const (
	// Static: a direct call of a module function or concrete method.
	Static CallKind = iota
	// Interface: a call through an interface method, resolved to the
	// implementing methods found in the module.
	Interface
	// External: a call whose target is outside the module (stdlib
	// function, or an interface with no module implementation).
	External
	// Dynamic: a call through a function value; the target is unknown.
	Dynamic
)

func (k CallKind) String() string {
	switch k {
	case Static:
		return "static"
	case Interface:
		return "interface"
	case External:
		return "external"
	case Dynamic:
		return "dynamic"
	}
	return "callkind?"
}

// Call is one call site inside a node's body.
type Call struct {
	Site *ast.CallExpr
	Kind CallKind
	// Fn is the called *types.Func when one is known: the static target,
	// the abstract interface method, or the external function. Nil for
	// Dynamic sites.
	Fn *types.Func
	// Callees are the module-internal nodes the call may reach (one for
	// Static, zero or more for Interface, none otherwise).
	Callees []*Node
}

// Node is one function body in the module: a declared function or
// method, or a function literal.
type Node struct {
	// Func is the types object for declared functions and methods; nil
	// for function literals.
	Func *types.Func
	// Decl is the declaration (nil for literals); Lit the literal (nil
	// for declarations). Body is the shared body pointer of whichever is
	// set, and may be nil for body-less declarations (assembly stubs).
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Body *ast.BlockStmt
	// Pkg is the package the body lives in.
	Pkg *analysis.Package
	// Parent is the enclosing function node for literals, nil otherwise.
	Parent *Node
	// Calls lists every call site in the body, in source order.
	Calls []Call
	// name caches the display name.
	name string
}

// Name returns a human-readable identifier: the FullName of declared
// functions ("(*asap/internal/sim.Engine).dispatch"), and the enclosing
// function's name plus a literal counter for closures.
func (n *Node) Name() string { return n.name }

// Pos returns the position of the function's declaration or literal.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Graph is the module call graph.
type Graph struct {
	// Nodes lists every function body in deterministic order.
	Nodes []*Node
	// byFunc maps declared functions and methods to their nodes.
	byFunc map[*types.Func]*Node
	// namedTypes lists every named (non-alias, non-interface) type
	// declared in the module, in deterministic order — the candidate set
	// for interface dispatch resolution.
	namedTypes []*types.Named
	// implCache memoizes interface-method resolution keyed by the
	// abstract method.
	implCache map[*types.Func][]*Node
}

// NodeOf returns the node of a declared function or method, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node { return g.byFunc[fn] }

// NamedTypes returns every named (non-alias, non-interface) type declared
// in the module, in deterministic order.
func (g *Graph) NamedTypes() []*types.Named { return g.namedTypes }

// Build constructs the call graph of the given packages (normally every
// package of the module; fixtures pass a single package).
func Build(pkgs []*analysis.Package) *Graph {
	g := &Graph{
		byFunc:    make(map[*types.Func]*Node),
		implCache: make(map[*types.Func][]*Node),
	}
	// Pass 1: index declared functions and named types, so pass 2 can
	// resolve forward and cross-package references.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					n := &Node{Func: fn, Decl: d, Body: d.Body, Pkg: pkg, name: fn.FullName()}
					g.Nodes = append(g.Nodes, n)
					g.byFunc[fn] = n
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || ts.Assign.IsValid() {
							continue // skip aliases
						}
						tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
						if !ok {
							continue
						}
						if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
							g.namedTypes = append(g.namedTypes, named)
						}
					}
				}
			}
		}
	}
	// Pass 2: walk bodies, collecting call sites and closure nodes.
	decls := g.Nodes // literals appended during the walk; iterate a copy
	for _, n := range decls {
		if n.Body != nil {
			g.walkBody(n)
		}
	}
	return g
}

// walkBody collects n's call sites and creates child nodes for the
// function literals it encloses (recursively, in source order).
func (g *Graph) walkBody(n *Node) {
	lits := 0
	var walk func(ast.Node) bool
	walk = func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.FuncLit:
			lits++
			child := &Node{
				Lit: e, Body: e.Body, Pkg: n.Pkg, Parent: n,
				name: fmt.Sprintf("%s·func%d", n.name, lits),
			}
			g.Nodes = append(g.Nodes, child)
			// Creating a closure is treated as a potential call of it.
			n.Calls = append(n.Calls, Call{Site: nil, Kind: Static, Callees: []*Node{child}})
			g.walkBody(child)
			return false // the child walk owns the literal's body
		case *ast.CallExpr:
			g.addCall(n, e)
		}
		return true
	}
	ast.Inspect(n.Body, walk)
}

// addCall classifies one call site and appends it to n.Calls. Type
// conversions and builtins are not calls in the graph sense and are
// skipped (analyzers inspect them directly from the AST).
func (g *Graph) addCall(n *Node, call *ast.CallExpr) {
	info := n.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return
	}
	fun := ast.Unparen(call.Fun)
	// Unwrap generic instantiations f[T](...).
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Func:
			g.addResolved(n, call, obj)
		default:
			// A variable, parameter, or field of function type.
			n.Calls = append(n.Calls, Call{Site: call, Kind: Dynamic})
		}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[f]
		if !ok {
			// Qualified identifier: pkg.Func.
			if obj, ok := info.Uses[f.Sel].(*types.Func); ok {
				g.addResolved(n, call, obj)
			} else {
				n.Calls = append(n.Calls, Call{Site: call, Kind: Dynamic})
			}
			return
		}
		switch sel.Kind() {
		case types.MethodVal, types.MethodExpr:
			m := sel.Obj().(*types.Func)
			if types.IsInterface(sel.Recv()) {
				g.addInterfaceCall(n, call, m, sel.Recv().Underlying().(*types.Interface))
			} else {
				g.addResolved(n, call, m)
			}
		default: // FieldVal: a func-typed struct field
			n.Calls = append(n.Calls, Call{Site: call, Kind: Dynamic})
		}
	case *ast.FuncLit:
		// Immediately-invoked literal. The inspection visits the literal
		// right after this call node and adds the creation edge then, so
		// the site needs no second record.
	default:
		n.Calls = append(n.Calls, Call{Site: call, Kind: Dynamic})
	}
}

// addResolved records a static call to fn, which may live outside the
// module. Generic instantiations are folded onto their origin.
func (g *Graph) addResolved(n *Node, call *ast.CallExpr, fn *types.Func) {
	fn = fn.Origin()
	if callee, ok := g.byFunc[fn]; ok {
		n.Calls = append(n.Calls, Call{Site: call, Kind: Static, Fn: fn, Callees: []*Node{callee}})
		return
	}
	n.Calls = append(n.Calls, Call{Site: call, Kind: External, Fn: fn})
}

// addInterfaceCall resolves a call through interface method m to every
// module implementation.
func (g *Graph) addInterfaceCall(n *Node, call *ast.CallExpr, m *types.Func, iface *types.Interface) {
	impls := g.implementations(m, iface)
	if len(impls) == 0 {
		n.Calls = append(n.Calls, Call{Site: call, Kind: External, Fn: m})
		return
	}
	n.Calls = append(n.Calls, Call{Site: call, Kind: Interface, Fn: m, Callees: impls})
}

// implementations returns the nodes of every module method that can be
// the target of a call through abstract method m of iface, memoized.
func (g *Graph) implementations(m *types.Func, iface *types.Interface) []*Node {
	if impls, ok := g.implCache[m]; ok {
		return impls
	}
	var impls []*Node
	seen := make(map[*Node]bool)
	for _, named := range g.namedTypes {
		// A pointer receiver's method set includes the value receiver's,
		// so checking *T covers both; types stored by value in interfaces
		// additionally need T itself to implement.
		ptr := types.NewPointer(named)
		if !types.Implements(ptr, iface) && !types.Implements(named, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if node := g.byFunc[fn.Origin()]; node != nil && !seen[node] {
			impls = append(impls, node)
			seen[node] = true
		}
	}
	g.implCache[m] = impls
	return impls
}

// HotDirective is the annotation marking a function as a hot-path root:
// every function transitively reachable from it must be provably
// allocation-free (enforced by alloccheck).
const HotDirective = "//asap:hot"

// HotRoots returns the nodes whose declaration doc comment carries the
// //asap:hot directive, in graph order.
func (g *Graph) HotRoots() []*Node {
	var roots []*Node
	for _, n := range g.Nodes {
		if n.Decl != nil && HasHotDirective(n.Decl) {
			roots = append(roots, n)
		}
	}
	return roots
}

// HasHotDirective reports whether the declaration's doc comment contains
// an //asap:hot line (optionally followed by explanatory text).
func HasHotDirective(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if c.Text == HotDirective || len(c.Text) > len(HotDirective) &&
			c.Text[:len(HotDirective)] == HotDirective &&
			(c.Text[len(HotDirective)] == ' ' || c.Text[len(HotDirective)] == '\t') {
			return true
		}
	}
	return false
}
