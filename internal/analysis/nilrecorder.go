package analysis

import (
	"go/ast"
	"go/token"
)

// NilRecorder pins the telemetry layer's documented nil-safety contract: a
// nil *Recorder (and every handle it gives out) is "telemetry off", so
// every exported pointer-receiver method in package obs must begin with a
// nil-receiver guard.
// Accepted forms:
//
//	func (r *T) M() { if r == nil { ... } ... }   // guard as first statement
//	func (r *T) M() bool { return r != nil }      // single-return nil test
//
// Without the guard, threading a disabled recorder through a hot path
// panics the first time telemetry is off — the exact failure mode the
// contract exists to prevent.
var NilRecorder = &Analyzer{
	Name: "nilrecorder",
	Doc:  "require nil-receiver guards on exported obs pointer methods",
	Run:  runNilRecorder,
}

func runNilRecorder(p *Pass) {
	if p.Pkg.Name() != "obs" {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			recv := pointerRecvName(fd)
			if recv == "" {
				continue
			}
			if beginsWithNilGuard(fd.Body, recv) {
				continue
			}
			p.Report(fd.Name.Pos(), "exported method %s does not begin with a nil-receiver guard (nil *%s must be a no-op)", fd.Name.Name, recvTypeName(fd))
		}
	}
}

// pointerRecvName returns the receiver identifier of a pointer-receiver
// method. Value receivers return "" (copying a value cannot panic on nil),
// as do unnamed pointer receivers (a body that cannot reference its
// receiver is trivially nil-safe).
func pointerRecvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return ""
	}
	field := fd.Recv.List[0]
	if _, ok := field.Type.(*ast.StarExpr); !ok {
		return ""
	}
	if len(field.Names) != 1 {
		return ""
	}
	return field.Names[0].Name
}

// recvTypeName names the receiver's type for diagnostics.
func recvTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	if ix, ok := t.(*ast.IndexExpr); ok {
		if id, ok := ix.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return "?"
}

// beginsWithNilGuard accepts a first-statement if whose condition tests
// recv against nil, or a single-return body whose expression does.
func beginsWithNilGuard(body *ast.BlockStmt, recv string) bool {
	if len(body.List) == 0 {
		return true // empty body touches nothing
	}
	switch first := body.List[0].(type) {
	case *ast.IfStmt:
		if condTestsNil(first.Cond, recv) {
			return true
		}
	case *ast.ReturnStmt:
		if len(body.List) == 1 {
			for _, res := range first.Results {
				if condTestsNil(res, recv) {
					return true
				}
			}
		}
	}
	return false
}

// condTestsNil reports whether expr contains a `recv == nil` or
// `recv != nil` comparison.
func condTestsNil(expr ast.Expr, recv string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		x, xok := ast.Unparen(be.X).(*ast.Ident)
		y, yok := ast.Unparen(be.Y).(*ast.Ident)
		if xok && yok && ((x.Name == recv && y.Name == "nil") || (y.Name == recv && x.Name == "nil")) {
			found = true
			return false
		}
		return true
	})
	return found
}
