package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange flags ranges over maps whose bodies feed ordered output — they
// run in Go's randomised map order, so whatever they build differs from run
// to run. A range body that appends to a slice, writes to an encoder/writer,
// or publishes on the bus is nondeterministic output unless the enclosing
// function also sorts (any call into package sort or slices, or a method
// named Sort), which is the established repo idiom: collect, sort, emit.
// Bodies that only write map entries or accumulate order-independent sums
// are fine.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "flag map iteration that feeds ordered output without sorting",
	Run:  runMapRange,
}

// orderedSinkMethods are method names that emit in call order: stream
// encoders, writers, and the silo bus/event surfaces.
var orderedSinkMethods = map[string]bool{
	"Encode": true, "EncodeValue": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Publish": true, "Send": true, "Broadcast": true, "Emit": true,
}

// orderedSinkFuncs are package-level print/write helpers keyed by package
// path.
var orderedSinkFuncs = map[string]map[string]bool{
	"fmt": {"Fprint": true, "Fprintf": true, "Fprintln": true, "Print": true, "Printf": true, "Println": true},
	"io":  {"WriteString": true},
}

func runMapRange(p *Pass) {
	for _, f := range p.Files {
		file := f
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			sink := orderedSink(p, rng.Body)
			if sink == "" {
				return true
			}
			fd := enclosingFunc(file, rng.Pos())
			if fd != nil && hasSortCall(p, fd) {
				return true
			}
			p.Report(rng.Pos(), "map iteration %s in random order; sort before emitting (no sort call in this function)", sink)
			return true
		})
	}
}

// orderedSink scans a range body for order-sensitive output and names the
// first kind found ("" when the body is order-independent).
func orderedSink(p *Pass, body *ast.BlockStmt) string {
	var sink string
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "sends on a channel"
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					sink = "appends to a slice"
					return false
				}
			}
			if fn := calleeFunc(p.Info, n); fn != nil && fn.Pkg() != nil {
				sig, _ := fn.Type().(*types.Signature)
				if sig != nil && sig.Recv() != nil {
					if orderedSinkMethods[fn.Name()] {
						sink = "writes to an ordered sink (" + fn.Name() + ")"
					}
				} else if names := orderedSinkFuncs[fn.Pkg().Path()]; names[fn.Name()] {
					sink = "writes to an ordered sink (" + fn.Pkg().Name() + "." + fn.Name() + ")"
				}
			}
		}
		return true
	})
	return sink
}

// hasSortCall reports whether fd's body contains any call into package sort
// or slices, or any method named Sort.
func hasSortCall(p *Pass, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil {
			return true
		}
		if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "sort" || pkg.Path() == "slices") {
			found = true
		} else if fn.Name() == "Sort" {
			found = true
		}
		return true
	})
	return found
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil when the callee is not a named
// function (builtin, conversion, func-typed variable, ...).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// enclosingFunc returns the innermost FuncDecl in file whose body spans pos,
// or nil for positions outside any function declaration.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}
