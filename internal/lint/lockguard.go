package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockguard checks the repo's `// guarded by <mu>` convention: a struct
// field carrying that annotation (doc or trailing comment; <mu> must be
// a sibling sync.Mutex/RWMutex field) may only be read or written after
// the owning value's mutex has been locked earlier in the same
// function, and every explicit Lock()/RLock() must be paired with an
// Unlock on all return paths (a later Unlock with no return in between,
// or a deferred one). The first per-System shape memo leak lived exactly in
// code where an unguarded map access raced its eviction path.
//
// The check is deliberately syntactic and local (source order within
// one function, receivers matched by expression text), with two escape
// hatches: functions whose name ends in "Locked" assert that the caller
// holds the lock, and constructors (New*/new*) may initialize fields
// before the value is shared.
var analyzerLockguard = &Analyzer{
	Name: "lockguard",
	Doc:  "fields annotated `// guarded by <mu>` need the lock held; Lock/Unlock must pair on all return paths",
	Run:  runLockguard,
}

func runLockguard(p *Pass) {
	guarded := collectGuardedFields(p)
	for _, ff := range p.Flow.Funcs {
		fd := ff.Decl
		if fd == nil {
			continue
		}
		checkLockPairing(p, fd)
		if len(guarded) > 0 {
			checkGuardedAccesses(p, fd, guarded)
		}
	}
}

// collectGuardedFields maps annotated field objects to the name of the
// sibling mutex that guards them, reporting malformed annotations.
func collectGuardedFields(p *Pass) map[*types.Var]string {
	out := make(map[*types.Var]string)
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			names := make(map[string]bool)
			for _, f := range st.Fields.List {
				for _, nm := range f.Names {
					names[nm.Name] = true
				}
			}
			for _, f := range st.Fields.List {
				mu := guardAnnotation(f)
				if mu == "" {
					continue
				}
				if !names[mu] {
					p.Reportf(f.Pos(), "`guarded by %s` names no sibling field of this struct", mu)
					continue
				}
				for _, nm := range f.Names {
					if obj, ok := p.Info.Defs[nm].(*types.Var); ok {
						out[obj] = mu
					}
				}
			}
			return true
		})
	}
	return out
}

// guardAnnotation extracts <mu> from a field's `guarded by <mu>` doc or
// trailing comment.
func guardAnnotation(f *ast.Field) string {
	for _, cg := range [2]*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		text := cg.Text()
		if i := strings.Index(text, "guarded by "); i >= 0 {
			rest := strings.Fields(text[i+len("guarded by "):])
			if len(rest) > 0 {
				return strings.TrimRight(rest[0], ".,;")
			}
		}
	}
	return ""
}

// lockEvent is one Lock/Unlock-family call in a function body, keyed by
// the printed receiver expression (e.g. "sh.mu").
type lockEvent struct {
	pos      token.Pos
	path     string // rendered mutex expression
	op       string // Lock, RLock, Unlock, RUnlock
	deferred bool
}

// lockOps is the method set we track on sync.Mutex / sync.RWMutex.
var lockOps = map[string]bool{"Lock": true, "RLock": true, "Unlock": true, "RUnlock": true}

// collectLockEvents gathers lock events and return positions of fd in
// source order.
func collectLockEvents(p *Pass, fd *ast.FuncDecl) (events []lockEvent, returns []token.Pos) {
	record := func(call *ast.CallExpr, deferred bool) bool {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !lockOps[sel.Sel.Name] {
			return false
		}
		if !isMutexType(p.TypeOf(sel.X)) {
			return false
		}
		events = append(events, lockEvent{
			pos:      call.Pos(),
			path:     types.ExprString(sel.X),
			op:       sel.Sel.Name,
			deferred: deferred,
		})
		return true
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.DeferStmt:
			if record(st.Call, true) {
				return false
			}
		case *ast.CallExpr:
			record(st, false)
		case *ast.ReturnStmt:
			returns = append(returns, st.Pos())
		}
		return true
	})
	return events, returns
}

func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := n.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// checkLockPairing verifies every non-deferred Lock/RLock has a
// matching Unlock on all return paths: either a deferred Unlock
// somewhere in the function, or a later source-order Unlock with no
// return statement in between.
func checkLockPairing(p *Pass, fd *ast.FuncDecl) {
	events, returns := collectLockEvents(p, fd)
	for _, l := range events {
		if l.deferred || (l.op != "Lock" && l.op != "RLock") {
			continue
		}
		unlockOp := "Unlock"
		if l.op == "RLock" {
			unlockOp = "RUnlock"
		}
		deferredUnlock := false
		var next token.Pos
		for _, u := range events {
			if u.op != unlockOp || u.path != l.path {
				continue
			}
			if u.deferred {
				deferredUnlock = true
				break
			}
			if u.pos > l.pos && (next == token.NoPos || u.pos < next) {
				next = u.pos
			}
		}
		if deferredUnlock {
			continue
		}
		if next == token.NoPos {
			p.Reportf(l.pos, "%s.%s() in %s has no matching %s; add defer %s.%s()", l.path, l.op, fd.Name.Name, unlockOp, l.path, unlockOp)
			continue
		}
		for _, r := range returns {
			if r > l.pos && r < next {
				p.Reportf(r, "return between %s.%s() and its %s in %s leaks the lock; use defer %s.%s()", l.path, l.op, unlockOp, fd.Name.Name, l.path, unlockOp)
				break
			}
		}
	}
}

// checkGuardedAccesses verifies every access to a guarded field is
// preceded (in source order within fd) by a Lock/RLock of the owning
// value's annotated mutex.
func checkGuardedAccesses(p *Pass, fd *ast.FuncDecl, guarded map[*types.Var]string) {
	name := fd.Name.Name
	if strings.HasSuffix(name, "Locked") || strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") {
		return
	}
	events, _ := collectLockEvents(p, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := p.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		obj, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		mu, ok := guarded[obj]
		if !ok {
			return true
		}
		want := types.ExprString(sel.X) + "." + mu
		for _, e := range events {
			if (e.op == "Lock" || e.op == "RLock") && e.path == want && e.pos < sel.Pos() {
				return true
			}
		}
		p.Reportf(sel.Pos(), "%s is guarded by %s but %s does not lock %s first (lock it, name the func ...Locked, or annotate)", types.ExprString(sel), mu, name, want)
		return true
	})
}
