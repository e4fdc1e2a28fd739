package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// retryloop flags hand-rolled retry loops that are unbounded or retry
// without backing off. The robustness work wrapped the disk-index read
// path in fault.RetryPolicy (bounded attempts, exponential backoff with
// jitter) precisely because a bare `for { if err := op(); err == nil
// {...} }` turns a persistent device failure into a hot spin — and a
// bounded-but-hot loop hammers a struggling resource at the worst
// moment. A loop is retry-shaped when an error produced by a call
// inside the loop decides whether to go around again: success exits
// while failure stays, or failure explicitly continues.
var analyzerRetryloop = &Analyzer{
	Name: "retryloop",
	Doc:  "retry loops must bound their attempts and back off between them (fault.RetryPolicy is the blessed pattern)",
	Run:  runRetryloop,
}

func runRetryloop(p *Pass) {
	for _, ff := range p.Flow.Funcs {
		ast.Inspect(ff.Body, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || !isRetryShaped(p, ff, loop) {
				return true
			}
			unbounded := loop.Cond == nil || isTrueLiteral(loop.Cond)
			backoff := hasBackoffCall(loop.Body)
			switch {
			case unbounded && !backoff:
				p.Reportf(loop.Pos(), "retry loop has neither an attempt bound nor backoff; a persistent failure spins hot forever (use fault.RetryPolicy)")
			case unbounded:
				p.Reportf(loop.Pos(), "retry loop has no attempt bound; a persistent failure retries forever (use fault.RetryPolicy)")
			case !backoff:
				p.Reportf(loop.Pos(), "retry loop retries without backoff; failed attempts hammer the resource back-to-back (use fault.RetryPolicy)")
			}
			return true
		})
	}
}

// isRetryShaped reports whether the loop re-attempts an operation based
// on its error: an error-typed value assigned from a call inside the
// loop is nil-checked, and either success exits the loop (break/return
// under err == nil) or failure explicitly stays (continue under
// err != nil, with an exit elsewhere for the success path). Nested
// loops, switches and selects are not descended — break/continue change
// meaning there, and inner loops are judged on their own.
func isRetryShaped(p *Pass, ff *FuncFlow, loop *ast.ForStmt) bool {
	var continueOnErr, exitOnSuccess, hasExit bool
	var walk func(s ast.Stmt)
	walkList := func(list []ast.Stmt) {
		for _, s := range list {
			walk(s)
		}
	}
	walk = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.BlockStmt:
			walkList(s.List)
		case *ast.LabeledStmt:
			walk(s.Stmt)
		case *ast.IfStmt:
			if obj, isEq := errNilCheck(p, s.Cond); obj != nil && errAssignedFromCall(ff, loop, obj) {
				if isEq && blockHasExit(s.Body) {
					exitOnSuccess = true
				}
				if !isEq && blockHasContinue(s.Body) {
					continueOnErr = true
				}
			}
			walk(s.Body)
			if s.Else != nil {
				walk(s.Else)
			}
		case *ast.BranchStmt:
			if s.Tok == token.BREAK {
				hasExit = true
			}
		case *ast.ReturnStmt:
			hasExit = true
		}
	}
	walkList(loop.Body.List)
	return exitOnSuccess || (continueOnErr && hasExit)
}

// errNilCheck matches `x == nil` / `x != nil` where x is an error-typed
// identifier, returning x's object and whether the comparison is ==.
func errNilCheck(p *Pass, cond ast.Expr) (types.Object, bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(p, y) {
		// keep x
	} else if isNilIdent(p, x) {
		x = y
	} else {
		return nil, false
	}
	id, ok := x.(*ast.Ident)
	if !ok || !isErrorType(p.TypeOf(id)) {
		return nil, false
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	return obj, be.Op == token.EQL
}

// errAssignedFromCall reports whether obj is defined from a call
// expression somewhere in the loop (including if-statement inits) — the
// "attempt" whose failure drives the next iteration. It reads the
// function's def-use facts instead of re-walking the loop; definitions
// inside nested function literals run on a different activation and do
// not count, matching the pre-flow behavior.
func errAssignedFromCall(ff *FuncFlow, loop *ast.ForStmt, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	for _, d := range ff.DefsOf(v) {
		if d.Pos < loop.Body.Pos() || d.Pos > loop.Body.End() || d.RHS == nil {
			continue
		}
		if _, isCall := ast.Unparen(d.RHS).(*ast.CallExpr); !isCall {
			continue
		}
		if d.Stmt != nil && ff.InFuncLit(d.Stmt) {
			continue
		}
		return true
	}
	return false
}

// blockHasExit reports whether the block (not descending into nested
// loops, switches, selects or function literals) breaks or returns.
func blockHasExit(b *ast.BlockStmt) bool {
	exit := false
	shallowWalk(b, func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.BranchStmt:
			if s.Tok == token.BREAK {
				exit = true
			}
		case *ast.ReturnStmt:
			exit = true
		}
	})
	return exit
}

// blockHasContinue is blockHasExit's counterpart for continue.
func blockHasContinue(b *ast.BlockStmt) bool {
	cont := false
	shallowWalk(b, func(s ast.Stmt) {
		if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.CONTINUE {
			cont = true
		}
	})
	return cont
}

// shallowWalk visits every statement reachable without crossing a
// nested loop, switch, select or function literal.
func shallowWalk(b *ast.BlockStmt, fn func(ast.Stmt)) {
	var walk func(ast.Stmt)
	walk = func(s ast.Stmt) {
		fn(s)
		switch s := s.(type) {
		case *ast.BlockStmt:
			for _, inner := range s.List {
				walk(inner)
			}
		case *ast.LabeledStmt:
			walk(s.Stmt)
		case *ast.IfStmt:
			walk(s.Body)
			if s.Else != nil {
				walk(s.Else)
			}
		}
	}
	for _, s := range b.List {
		walk(s)
	}
}

// hasBackoffCall reports whether the loop body waits between attempts:
// a time.Sleep/After/NewTimer/Tick call, or any callee whose name
// suggests a pacing primitive (sleep, backoff, delay, wait).
func hasBackoffCall(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
			if pkg, ok := fun.X.(*ast.Ident); ok && pkg.Name == "time" {
				switch name {
				case "Sleep", "After", "NewTimer", "Tick":
					found = true
					return false
				}
			}
		}
		switch l := strings.ToLower(name); {
		case strings.Contains(l, "sleep"), strings.Contains(l, "backoff"),
			strings.Contains(l, "delay"), l == "wait":
			found = true
			return false
		}
		return true
	})
	return found
}

func isNilIdent(p *Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := p.Info.Uses[id].(*types.Nil)
	return isNil
}

func isTrueLiteral(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "true"
}
