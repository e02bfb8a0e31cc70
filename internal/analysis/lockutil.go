package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Shared machinery for the concurrency-discipline analyzers (guardedby,
// goroutinelife, chansafety): resolving mutex lock/unlock calls to the
// mutex object they act on and finding same-package function bodies for
// interprocedural checks.

// syncLockTypes are the sync types whose Lock family the discipline
// analyzers track.
var syncLockTypes = map[string]bool{"Mutex": true, "RWMutex": true}

// lockOpKind classifies one mutex method call.
type lockOpKind int

const (
	opLock lockOpKind = iota
	opUnlock
	opRLock
	opRUnlock
)

var lockOpNames = map[string]lockOpKind{
	"Lock":    opLock,
	"Unlock":  opUnlock,
	"RLock":   opRLock,
	"RUnlock": opRUnlock,
}

// lockOp is one Lock/Unlock/RLock/RUnlock call resolved to the object that
// identifies the mutex: the final field or variable of the receiver chain
// (b.mu.Lock() -> the mu field's *types.Var).
type lockOp struct {
	kind lockOpKind
	obj  types.Object
	pos  token.Pos
}

// mutexOpOf resolves call to a lockOp when it is a sync.Mutex/sync.RWMutex
// method invocation whose receiver resolves to a named object.
func mutexOpOf(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	kind, ok := lockOpNames[f.Name()]
	if !ok {
		return lockOp{}, false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !syncLockTypes[namedSyncType(sig.Recv().Type())] {
		return lockOp{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	obj := chainObject(info, sel.X)
	if obj == nil {
		return lockOp{}, false
	}
	return lockOp{kind: kind, obj: obj, pos: call.Pos()}, true
}

// chainObject resolves a receiver expression to its identifying object: the
// final ident or selector field of the chain (b.mu -> mu's field var, mu ->
// mu's var). Parens and derefs are unwrapped; anything else is anonymous.
func chainObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.StarExpr:
		return chainObject(info, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return chainObject(info, e.X)
		}
	}
	return nil
}

// namedSyncType returns the type's name when it is a (possibly pointered)
// named type of package sync, else "".
func namedSyncType(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return ""
	}
	return obj.Name()
}

// collectLockOps gathers every resolvable mutex lock/unlock call inside body
// (closures included — a closure runs with whatever locks its call site
// arranges, which is beyond this analysis's scope either way).
func collectLockOps(info *types.Info, body *ast.BlockStmt) []lockOp {
	var ops []lockOp
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op, ok := mutexOpOf(info, call); ok {
				ops = append(ops, op)
			}
		}
		return true
	})
	return ops
}

// lockHeldBefore reports whether a Lock or RLock on obj appears before pos
// in ops (nil obj: any mutex counts). The check is positional, not
// path-sensitive: mu.Lock() anywhere above the access is taken as evidence
// the author thought about the lock — the race detector covers the rest.
func lockHeldBefore(ops []lockOp, obj types.Object, pos token.Pos) bool {
	for _, op := range ops {
		if (op.kind == opLock || op.kind == opRLock) && op.pos < pos &&
			(obj == nil || op.obj == obj) {
			return true
		}
	}
	return false
}

// funcDecls indexes the package's function declarations by their type-checker
// object, so analyzers can follow a call or go statement into a same-package
// body.
func funcDecls(p *Pass) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}
