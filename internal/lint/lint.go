// Package lint is a stdlib-only static-analysis framework that enforces
// the repo's concurrency, context, and key-encoding invariants. It is
// deliberately built on go/parser + go/ast + go/types + go/importer
// alone (no golang.org/x/tools), honoring the repo's stdlib-only rule.
//
// Each Analyzer encodes one invariant that a past change violated (or
// plausibly could have): see errdrop.go, keyjoin.go, lockguard.go,
// maporder.go and retryloop.go for the individual checks and the bugs
// that motivated them. The cmd/xkvet driver loads every package in the
// module, type-checks it, runs all analyzers, and exits nonzero on any
// finding not suppressed by an explicit
//
//	//xk:ignore <analyzer> <reason>
//
// comment on the offending line or the line directly above it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one analyzer hit: a position, the analyzer that fired, and
// a human-readable message.
type Finding struct {
	Pos  token.Position
	Name string
	Msg  string
}

// String renders the driver's canonical `file:line: [name] message`
// form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Name, f.Msg)
}

// Pass is the per-package unit of work handed to each analyzer: the
// parsed files plus the full type information of one type-checked
// package, and the package's def-use flow facts (flow.go).
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Flow  *Flow

	name   string
	report func(Finding)
}

// Reportf records a finding of the running analyzer at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Pos:  p.Fset.Position(pos),
		Name: p.name,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-tolerant shorthand for p.Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string // short lower-case name used in findings and ignore directives
	Doc  string // one-line description of the invariant
	Run  func(*Pass)
}

// Analyzers returns the full registry, sorted by name. The set is fixed
// at compile time; the xkvet -analyzers flag selects a subset.
func Analyzers() []*Analyzer {
	as := []*Analyzer{
		analyzerKeyjoin,
		analyzerErrdrop,
		analyzerLockguard,
		analyzerRetryloop,
		analyzerMaporder,
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// KnownNames returns every registered analyzer name (used to validate
// ignore directives even when only a subset of analyzers runs).
func KnownNames() map[string]bool {
	m := make(map[string]bool)
	for _, a := range Analyzers() {
		m[a.Name] = true
	}
	return m
}

// runAnalyzers executes each analyzer over one package and returns the
// raw (unfiltered) findings, sorted by position. The flow facts are
// built once here and shared by every analyzer.
func runAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []Finding {
	var out []Finding
	pass := &Pass{
		Fset:   fset,
		Files:  files,
		Pkg:    pkg,
		Info:   info,
		Flow:   buildFlow(files, info),
		report: func(f Finding) { out = append(out, f) },
	}
	for _, a := range analyzers {
		pass.name = a.Name
		a.Run(pass)
	}
	sortFindings(out)
	return out
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Msg < b.Msg
	})
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// calleeFunc resolves the *types.Func a call statically dispatches to,
// or nil for calls through function values, builtins, and conversions.
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}
