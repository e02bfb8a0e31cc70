// Package analysis is silofuse's source-level invariant checker: a small,
// pure-stdlib (go/parser, go/ast, go/types, go/importer — no x/tools)
// analyzer framework plus the repo-specific analyzers behind the
// silofuse-vet command.
//
// The paper's evaluation assumes bit-reproducible runs at a fixed seed, and
// the zero-allocation hot path is otherwise guaranteed only by after-the-fact
// runtime tests. The analyzers here reject the patterns that silently break
// those stories — wall-clock reads in deterministic packages, globally seeded
// randomness, allocating constructs inside //silofuse:noalloc kernels,
// unsorted map iteration feeding ordered output, unguarded nil receivers in
// the telemetry layer, exact float comparisons outside blessed
// bitwise-parity tests, and float64<->float32 conversions outside the
// audited precision boundary — at analysis time, before any experiment runs.
//
// A second family enforces concurrency discipline, which the race detector
// can only catch probabilistically: //silofuse:guardedby mutex annotations
// on struct fields (guardedby), termination paths for every go statement
// (goroutinelife), and close/send/receive contracts plus hot-path channel
// capacity (chansafety).
//
// Source files opt out of individual checks with annotation comments
// (//silofuse:noalloc, //silofuse:walltime-ok, //silofuse:bitwise-ok,
// //silofuse:precision-ok, //silofuse:locked, //silofuse:fire-and-forget,
// //silofuse:unbuffered-ok, //silofuse:chan-ok); see the Annotations type
// for placement rules.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// Diagnostic is one finding: a position, the analyzer that produced it, and
// a human-readable message. String renders the driver's canonical
// file:line:col: analyzer: message form.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string // short lowercase identifier, e.g. "walltime"
	Doc  string // one-line summary of what the analyzer enforces
	Run  func(*Pass)
}

// Pass carries everything an analyzer needs to inspect one package: the
// parsed syntax, the type-checked package and its types.Info, and the
// package's annotation index. Analyzers report findings through Report.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Annot    *Annotations

	diags *[]Diagnostic
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes each analyzer over each package and returns every finding
// sorted by file, line, column, then analyzer name, so output and tests are
// deterministic regardless of package traversal order.
func Run(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	diags, _ := RunTimed(analyzers, pkgs)
	return diags
}

// Stat aggregates one analyzer's cost and yield across a RunTimed call, so
// the lint driver can surface analyzer regressions (cost in wall-time,
// noise in finding counts) without profiling.
type Stat struct {
	Name     string
	Findings int
	Elapsed  time.Duration
}

// RunTimed is Run plus per-analyzer stats, ordered like the analyzers slice.
func RunTimed(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, []Stat) {
	var diags []Diagnostic
	stats := make([]Stat, len(analyzers))
	for i, a := range analyzers {
		stats[i].Name = a.Name
	}
	for _, pkg := range pkgs {
		for i, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Syntax,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Annot:    pkg.Annot,
				diags:    &diags,
			}
			before := len(diags)
			start := time.Now()
			a.Run(pass)
			stats[i].Elapsed += time.Since(start)
			stats[i].Findings += len(diags) - before
		}
	}
	sortDiags(diags)
	return diags, stats
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// All returns the full silofuse analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		SeededRand,
		Walltime,
		NoAlloc,
		MapRange,
		NilRecorder,
		FloatEq,
		PrecisionCast,
		GuardedBy,
		GoroutineLife,
		ChanSafety,
	}
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

// isPkgFunc reports whether f is the package-level function pkgPath.name
// (not a method).
func isPkgFunc(f *types.Func, pkgPath, name string) bool {
	if f == nil || f.Pkg() == nil {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return f.Pkg().Path() == pkgPath && f.Name() == name
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
