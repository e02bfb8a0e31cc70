package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GuardedBy enforces the mutex discipline declared by field annotations.
// It has two halves:
//
//  1. A struct field carrying //silofuse:guardedby <mu> (trailing its line
//     or on the line above) may only be read or written in functions that
//     lock the named sibling mutex first — a positional check: a
//     <mu>.Lock() or <mu>.RLock() call earlier in the same function body
//     counts as evidence, and //silofuse:locked <mu> in a function's doc
//     comment exempts helpers that run with the lock already held at every
//     call site. Constructor writes through a local built from a composite
//     literal or new() are exempt (the object is not shared yet), as are
//     address-of expressions (&b.stats hands the field to code that locks
//     on its own schedule). Test files are exempt from the access rule:
//     tests inspect fields single-threaded after goroutines join.
//
//  2. Defer-unlock pairing: a function that calls <mu>.Lock() but never
//     <mu>.Unlock() (or RLock without RUnlock) on the same mutex leaks the
//     lock on every path.
//
// Copying a sync primitive by value is not checked here: `go vet`'s
// copylocks pass, which `make lint` runs next to this analyzer, reports it.
//
// The check is intra-package and identity-based: b.mu.Lock() counts for
// any access through the mu field object, so it cannot distinguish two
// instances of the same struct. The race detector covers what this rule's
// positional approximation cannot.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "enforce //silofuse:guardedby mutex discipline and unlock pairing",
	Run:  runGuardedBy,
}

// guardSpec records one annotated field: the mutex field object that guards
// it and the names used in diagnostics.
type guardSpec struct {
	guard     *types.Var
	guardName string
	owner     string
	field     string
}

func runGuardedBy(p *Pass) {
	guards := collectGuards(p)
	for _, f := range p.Files {
		fname := p.Fset.Position(f.Pos()).Filename
		inTest := strings.HasSuffix(fname, "_test.go")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ops := collectLockOps(p.Info, fd.Body)
			checkLockPairing(p, fd, ops)
			lockedSet := lockedMutexes(p, fd)
			if !inTest && len(guards) > 0 {
				checkGuardedAccesses(p, fd, guards, ops, lockedSet)
			}
		}
	}
}

// collectGuards resolves every //silofuse:guardedby field annotation in the
// package to (guarded field object, guard mutex object), reporting malformed
// annotations: a missing mutex name, a guard that is not a sibling field, or
// a guard that is not a mutex.
func collectGuards(p *Pass) map[*types.Var]guardSpec {
	guards := make(map[*types.Var]guardSpec)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					for _, nameID := range field.Names {
						arg, ok := p.Annot.LookupField(AnnotGuardedBy, nameID.Pos())
						if !ok {
							continue
						}
						fv, _ := p.Info.Defs[nameID].(*types.Var)
						if fv == nil {
							continue
						}
						if arg == "" {
							p.Report(nameID.Pos(), "guardedby annotation on %s.%s needs a mutex field name", ts.Name.Name, nameID.Name)
							continue
						}
						gv := structFieldVar(p, st, arg)
						if gv == nil {
							p.Report(nameID.Pos(), "guardedby guard %q is not a field of struct %s", arg, ts.Name.Name)
							continue
						}
						if !syncLockTypes[namedSyncType(gv.Type())] {
							p.Report(nameID.Pos(), "guardedby guard %s.%s is not a sync.Mutex or sync.RWMutex", ts.Name.Name, arg)
							continue
						}
						guards[fv] = guardSpec{guard: gv, guardName: arg, owner: ts.Name.Name, field: nameID.Name}
					}
				}
			}
		}
	}
	return guards
}

// structFieldVar finds the named field's type-checker object in st.
func structFieldVar(p *Pass, st *ast.StructType, name string) *types.Var {
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			if id.Name == name {
				v, _ := p.Info.Defs[id].(*types.Var)
				return v
			}
		}
	}
	return nil
}

// lockedMutexes parses fd's //silofuse:locked directives into the set of
// mutex names the caller is promised to hold, reporting directives with no
// mutex name.
func lockedMutexes(p *Pass, fd *ast.FuncDecl) map[string]bool {
	args, ok := FuncAnnotArgs(AnnotLocked, fd)
	if !ok {
		return nil
	}
	set := make(map[string]bool, len(args))
	for _, a := range args {
		if a == "" {
			p.Report(fd.Name.Pos(), "locked annotation on %s needs a mutex field name", fd.Name.Name)
			continue
		}
		set[a] = true
	}
	return set
}

func checkGuardedAccesses(p *Pass, fd *ast.FuncDecl, guards map[*types.Var]guardSpec, ops []lockOp, lockedSet map[string]bool) {
	parents := buildParents(fd.Body)
	fresh := freshLocals(p, fd.Body)
	var lits []*ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if l, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, l)
		}
		return true
	})
	inLit := func(pos token.Pos) bool {
		for _, l := range lits {
			if l.Pos() <= pos && pos <= l.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fv, ok := p.Info.Uses[sel.Sel].(*types.Var)
		if !ok {
			return true
		}
		spec, ok := guards[fv]
		if !ok {
			return true
		}
		if ue, ok := parents[sel].(*ast.UnaryExpr); ok && ue.Op == token.AND {
			return true
		}
		if base := baseIdent(sel.X); base != nil && !inLit(sel.Pos()) {
			if obj := p.Info.Uses[base]; obj != nil && fresh[obj] {
				return true
			}
		}
		if lockedSet[spec.guardName] {
			return true
		}
		if lockHeldBefore(ops, spec.guard, sel.Pos()) {
			return true
		}
		p.Report(sel.Sel.Pos(), "access to %s.%s without holding %s (lock it first or mark the function //silofuse:locked %s)",
			spec.owner, spec.field, spec.guardName, spec.guardName)
		return true
	})
}

// checkLockPairing flags Lock-without-Unlock (and RLock-without-RUnlock) on
// the same mutex object inside one function body. Only the all-or-nothing
// case is reported — mismatched counts across branches are path-sensitive
// territory this analyzer stays out of.
func checkLockPairing(p *Pass, fd *ast.FuncDecl, ops []lockOp) {
	type tally struct {
		lock, unlock, rlock, runlock int
		firstLock, firstRLock        token.Pos
	}
	tallies := make(map[types.Object]*tally)
	order := []types.Object{}
	for _, op := range ops {
		t := tallies[op.obj]
		if t == nil {
			t = &tally{}
			tallies[op.obj] = t
			order = append(order, op.obj)
		}
		switch op.kind {
		case opLock:
			if t.lock == 0 {
				t.firstLock = op.pos
			}
			t.lock++
		case opUnlock:
			t.unlock++
		case opRLock:
			if t.rlock == 0 {
				t.firstRLock = op.pos
			}
			t.rlock++
		case opRUnlock:
			t.runlock++
		}
	}
	for _, obj := range order {
		t := tallies[obj]
		if t.lock > 0 && t.unlock == 0 {
			p.Report(t.firstLock, "%s.Lock in %s has no matching Unlock on any path", obj.Name(), fd.Name.Name)
		}
		if t.rlock > 0 && t.runlock == 0 {
			p.Report(t.firstRLock, "%s.RLock in %s has no matching RUnlock on any path", obj.Name(), fd.Name.Name)
		}
	}
}

// baseIdent unwraps parens and derefs to the root identifier of a selector
// base, or nil when the base is not a plain (possibly dereferenced) ident.
func baseIdent(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.StarExpr:
		return baseIdent(e.X)
	}
	return nil
}

// buildParents maps each node under root to its syntactic parent.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// freshLocals collects local objects assigned from a composite literal,
// &composite, or new(T) anywhere in body: accesses through them are
// constructor writes on an object no other goroutine can see yet.
func freshLocals(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok || len(a.Lhs) != len(a.Rhs) {
			return true
		}
		for i, lhs := range a.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || !isFreshExpr(p, a.Rhs[i]) {
				continue
			}
			if obj := p.Info.Defs[id]; obj != nil {
				fresh[obj] = true
			} else if obj := p.Info.Uses[id]; obj != nil {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

// isFreshExpr reports whether e constructs a brand-new object: a composite
// literal, its address, or new(T).
func isFreshExpr(p *Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "new" {
				return true
			}
		}
	}
	return false
}
