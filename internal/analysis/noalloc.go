package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoAlloc enforces the zero-allocation contract of the hot-path kernels.
// It has two halves:
//
//  1. A function whose doc comment carries //silofuse:noalloc may not
//     contain allocating constructs: make, append, new, composite literals,
//     closures (func literals), or string concatenation. Allocation in
//     callees is out of scope — the annotation marks the steady-state
//     entry points whose own bodies must stay clean (cold-path growth
//     lives in un-annotated helpers like tensor.Ensure).
//
//  2. In the kernel packages (tensor, nn, diffusion), every exported
//     function or method whose name ends in "Into" must carry the
//     annotation, so a new destination-passing kernel cannot silently skip
//     the contract and removing an annotation fails the repo self-check.
//
//  3. Annotated bodies may not invoke profile capture: calls into
//     runtime/pprof snapshot the whole heap or write gzipped protobuf —
//     allocation and I/O that have no place inside a zero-allocation
//     kernel. A profile brackets the run, in the binary that owns it.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "keep //silofuse:noalloc kernels free of allocating constructs",
	Run:  runNoAlloc,
}

// kernelPkgs are the packages whose exported *Into functions form the
// destination-passing kernel family pinned by the AllocsPerRun==0 tests.
var kernelPkgs = map[string]bool{"tensor": true, "nn": true, "diffusion": true}

func runNoAlloc(p *Pass) {
	for _, f := range p.Files {
		fname := p.Fset.Position(f.Pos()).Filename
		inTest := strings.HasSuffix(fname, "_test.go")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			annotated := FuncAnnotated(AnnotNoAlloc, fd)
			if annotated {
				checkNoAllocBody(p, fd)
			}
			if !annotated && !inTest && kernelPkgs[p.Pkg.Name()] &&
				fd.Name.IsExported() && strings.HasSuffix(fd.Name.Name, "Into") {
				p.Report(fd.Name.Pos(), "exported kernel %s is missing the //silofuse:noalloc annotation", fd.Name.Name)
			}
		}
	}
}

func checkNoAllocBody(p *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			p.Report(n.Pos(), "composite literal allocates in noalloc function %s", name)
		case *ast.FuncLit:
			p.Report(n.Pos(), "closure allocates in noalloc function %s", name)
			return false // don't double-report the closure's own body
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "new", "append":
						p.Report(n.Pos(), "%s allocates in noalloc function %s", b.Name(), name)
					}
				}
			}
			if f := calleeFunc(p.Info, n); f != nil && f.Pkg() != nil && f.Pkg().Path() == "runtime/pprof" {
				p.Report(n.Pos(), "profile capture %s in noalloc function %s (capture allocates; profile the whole run from its binary)", f.Name(), name)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(p.Info, n) {
				p.Report(n.Pos(), "string concatenation allocates in noalloc function %s", name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(p.Info, n.Lhs[0]) {
				p.Report(n.Pos(), "string concatenation allocates in noalloc function %s", name)
			}
		}
		return true
	})
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
