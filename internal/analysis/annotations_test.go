package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseAnnotations parses one source file and returns its annotation index
// plus the fset, for scope-resolution tests that don't need type checking.
func parseAnnotations(t *testing.T, src string) (*token.FileSet, *ast.File, *Annotations) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f, CollectAnnotations(fset, []*ast.File{f})
}

// posOnLine returns a position on the given 1-based line of the file.
func posOnLine(fset *token.FileSet, f *ast.File, line int) token.Pos {
	tf := fset.File(f.Pos())
	return tf.LineStart(line)
}

// TestAnnotationScopes pins the placement grammar: file-doc directives cover
// the whole file, function-doc directives cover the function span, trailing
// directives cover exactly their own line, and standalone comment lines
// cover exactly the next line — never neighbours in either direction.
func TestAnnotationScopes(t *testing.T) {
	const src = `// Package p tests annotation scoping.
//
//silofuse:bitwise-ok parity harness compares bit patterns
package p

var wide = 1.5

var (
	//silofuse:precision-ok rounded once for the table
	standalone = float32(wide)
	neighbour  = float32(wide)
	trailing   = float32(wide) //silofuse:precision-ok rounded once for the table
	after      = float32(wide)
)

// kernel: a doc-scoped directive covers the body.
//
//silofuse:precision-ok dedicated conversion kernel
func kernel(x float64) float32 { return float32(x) }

func plain(x float64) float32 { return float32(x) }

func body(x float64) (float32, float32) {
	//silofuse:precision-ok wire value, error accounted upstream
	a := float32(x)
	b := float32(x)
	return a, b
}
`
	fset, f, annot := parseAnnotations(t, src)

	tests := []struct {
		name      string
		directive string
		line      int
		wantOK    bool
		wantArg   string
	}{
		{"file scope covers any line", AnnotBitwiseOK, 21, true, "parity harness compares bit patterns"},
		{"standalone covers next line", AnnotPrecisionOK, 10, true, "rounded once for the table"},
		{"standalone does not bleed past one line", AnnotPrecisionOK, 11, false, ""},
		{"trailing covers its own line", AnnotPrecisionOK, 12, true, "rounded once for the table"},
		{"trailing does not cover the next line", AnnotPrecisionOK, 13, false, ""},
		{"func doc covers body lines", AnnotPrecisionOK, 19, true, "dedicated conversion kernel"},
		{"func doc does not cover other funcs", AnnotPrecisionOK, 21, false, ""},
		{"standalone in body covers next stmt", AnnotPrecisionOK, 25, true, "wire value, error accounted upstream"},
		{"standalone in body does not cover later stmts", AnnotPrecisionOK, 26, false, ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			arg, ok := annot.Lookup(tc.directive, posOnLine(fset, f, tc.line))
			if ok != tc.wantOK || arg != tc.wantArg {
				t.Fatalf("Lookup(%s, line %d) = (%q, %v), want (%q, %v)",
					tc.directive, tc.line, arg, ok, tc.wantArg, tc.wantOK)
			}
		})
	}
}
