// Package analysis is silofuse's source-level invariant checker: a small,
// pure-stdlib (go/parser, go/ast, go/types, go/importer — no x/tools)
// analyzer framework plus the three repo-specific analyzers behind the
// silofuse-vet command.
//
// An analyzer stays here only while it catches a bug no test catches
// (DESIGN.md, "Every analyzer shows a catch, or goes"). Three do: map
// iteration that orders output nobody compares across runs (maprange), exact
// float comparisons where a tolerance was meant (floateq), and
// float64<->float32 conversions outside the audited precision boundary
// (precisioncast) — each changes an output without failing a test.
// Randomness, clock reads, allocation, nil receivers and locking are held by
// tests instead: the fit fingerprint oracle, the AllocsPerRun pins, the
// nil-receiver test in internal/obs and the race detector.
//
// Source files opt out of a check with an annotation comment
// (//silofuse:bitwise-ok, //silofuse:precision-ok); see the Annotations type
// for placement rules.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
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
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Syntax,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Annot:    pkg.Annot,
				diags:    &diags,
			})
		}
	}
	sortDiags(diags)
	return diags
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
	return []*Analyzer{MapRange, FloatEq, PrecisionCast}
}
