package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the fact layer: a lightweight intra-procedural def-use
// pass built once per package before the analyzers run. It gives every
// analyzer the same two primitives —
//
//   - parent links (Flow.Parent, FuncFlow.InFuncLit), so a check can
//     ask "is this use inside a return statement / call argument /
//     function literal" without re-walking the file, and
//   - def and use sites per *types.Var (FuncFlow.DefsOf / UsesOf), in
//     source order, covering :=, =, var declarations, range bindings,
//     parameters and named results.
//
// The pass is deliberately flow-insensitive within a function (facts
// are ordered by position, and dominance is approximated by source
// order, matching the repo's straight-line commit/verify idioms) and
// purely intra-procedural.

// Def is one definition site of a variable: an assignment, declaration,
// range binding, parameter, or named result.
type Def struct {
	Pos  token.Pos
	RHS  ast.Expr // defining expression; nil for params/results/bare var decls
	Stmt ast.Node // enclosing assign/decl/range statement, nil for params
}

// FuncFlow holds the def-use facts of one function body. A FuncFlow is
// built for every FuncDecl and for every function literal that is not
// nested inside one (package-level var initializers); literals nested
// in a declared function share their enclosing FuncFlow, matching Go's
// closure semantics.
type FuncFlow struct {
	Decl *ast.FuncDecl // nil for a package-level function literal
	Lit  *ast.FuncLit  // set when Decl is nil
	Body *ast.BlockStmt

	flow     *Flow
	defs     map[*types.Var][]Def
	uses     map[*types.Var][]*ast.Ident
	identVar map[*ast.Ident]*types.Var // reverse index over use sites
}

// Flow is the package-wide fact set: one FuncFlow per function plus a
// parent map spanning every file of the package.
type Flow struct {
	Funcs []*FuncFlow

	parent map[ast.Node]ast.Node
}

// buildFlow walks the package once, recording parent links and per-
// function def/use facts.
func buildFlow(files []*ast.File, info *types.Info) *Flow {
	fl := &Flow{
		parent: make(map[ast.Node]ast.Node),
	}
	for _, file := range files {
		// Parent links for the whole file, including package-level decls.
		// The file node itself is the root and must stay parentless, or
		// every walk up the chain would cycle on parent[file] == file.
		stack := []ast.Node{nil}
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if top := stack[len(stack)-1]; top != nil {
				fl.parent[n] = top
			}
			stack = append(stack, n)
			return true
		})
	}
	for _, file := range files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fl.addFunc(&FuncFlow{Decl: fd, Body: fd.Body}, info)
			}
		}
		// Package-level function literals (var handlers = func() {...})
		// get their own FuncFlow; literals inside FuncDecls are already
		// covered by their enclosing function's walk.
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			if fl.enclosingFuncDecl(lit) != nil {
				return false
			}
			fl.addFunc(&FuncFlow{Lit: lit, Body: lit.Body}, info)
			return false
		})
	}
	return fl
}

func (fl *Flow) enclosingFuncDecl(n ast.Node) *ast.FuncDecl {
	for p := fl.parent[n]; p != nil; p = fl.parent[p] {
		if fd, ok := p.(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

func (fl *Flow) addFunc(ff *FuncFlow, info *types.Info) {
	ff.flow = fl
	ff.defs = make(map[*types.Var][]Def)
	ff.uses = make(map[*types.Var][]*ast.Ident)
	ff.identVar = make(map[*ast.Ident]*types.Var)
	if ff.Decl != nil && ff.Decl.Type.Params != nil {
		for _, field := range ff.Decl.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					ff.defs[v] = append(ff.defs[v], Def{Pos: name.Pos()})
				}
			}
		}
	}
	if ff.Decl != nil && ff.Decl.Type.Results != nil {
		for _, field := range ff.Decl.Type.Results.List {
			for _, name := range field.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					ff.defs[v] = append(ff.defs[v], Def{Pos: name.Pos()})
				}
			}
		}
	}
	record := func(id *ast.Ident, def Def) {
		v := varObj(info, id)
		if v == nil {
			return
		}
		def.Pos = id.Pos()
		ff.defs[v] = append(ff.defs[v], def)
		ff.identVar[id] = v // defs resolve through VarOf too
	}
	ast.Inspect(ff.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0] // tuple assignment: every lhs comes from the call
				}
				record(id, Def{RHS: rhs, Stmt: n})
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				var rhs ast.Expr
				if i < len(n.Values) {
					rhs = n.Values[i]
				}
				record(name, Def{RHS: rhs, Stmt: n})
			}
		case *ast.RangeStmt:
			for _, e := range [2]ast.Expr{n.Key, n.Value} {
				if e == nil {
					continue
				}
				if id, ok := ast.Unparen(e).(*ast.Ident); ok {
					record(id, Def{RHS: n.X, Stmt: n})
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				record(id, Def{RHS: n.X, Stmt: n})
			}
		case *ast.Ident:
			if v := varObj(info, n); v != nil {
				if _, isDef := info.Defs[n]; !isDef {
					ff.uses[v] = append(ff.uses[v], n)
					ff.identVar[n] = v
				}
			}
		}
		return true
	})
	fl.Funcs = append(fl.Funcs, ff)
}

// varObj resolves an identifier to the *types.Var it denotes (use or
// def), or nil.
func varObj(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// Parent returns the syntactic parent of n within the package, or nil.
func (fl *Flow) Parent(n ast.Node) ast.Node { return fl.parent[n] }

// DefsOf returns v's definition sites in this function, in source
// order.
func (ff *FuncFlow) DefsOf(v *types.Var) []Def { return ff.defs[v] }

// UsesOf returns v's use sites (reads) in this function, in source
// order.
func (ff *FuncFlow) UsesOf(v *types.Var) []*ast.Ident { return ff.uses[v] }

// InFuncLit reports whether n sits inside a function literal nested
// below this function's body (i.e. runs on a different activation).
func (ff *FuncFlow) InFuncLit(n ast.Node) bool {
	for p := ff.flow.parent[n]; p != nil; p = ff.flow.parent[p] {
		if _, ok := p.(*ast.FuncLit); ok && p != ff.Lit {
			return true
		}
		if p == ff.Body {
			return false
		}
	}
	return false
}

// VarOf resolves an expression to the variable it names, unwrapping
// parentheses, or nil for anything more complex than an identifier.
func (ff *FuncFlow) VarOf(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if v := ff.identVar[id]; v != nil {
		return v
	}
	return nil
}
