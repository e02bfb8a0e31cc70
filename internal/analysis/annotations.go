package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Annotation directives recognised in source comments. A directive is a
// comment line of the form
//
//	//silofuse:<name> [justification...]
//
// (no space after //, like other Go tool directives, so gofmt leaves it
// alone). Placement decides scope:
//
//   - in a function's doc comment: covers the whole function body;
//   - on its own line inside a body: covers the next source line;
//   - trailing a statement: covers that line;
//   - in the file's package doc comment: covers the whole file.
const (
	// AnnotBitwiseOK exempts an exact float comparison — the warm-vs-cold
	// bitwise-parity tests and deliberate sentinel comparisons.
	AnnotBitwiseOK = "bitwise-ok"
	// AnnotPrecisionOK exempts a float64<->float32 conversion outside the
	// blessed precision boundary (the silo/codec package and the tensor
	// conversion kernels). It requires a justification string.
	AnnotPrecisionOK = "precision-ok"
)

const annotPrefix = "silofuse:"

// annotEntry is one parsed directive occurrence.
type annotEntry struct {
	name     string
	arg      string // justification text after the directive name, trimmed
	line     int    // line the comment sits on
	trailing bool   // shares its line with code (covers that line), vs a standalone comment line (covers the next)
}

// funcRange is a line span covered by a function-level directive.
type funcRange struct {
	name       string
	arg        string
	start, end int
}

// Annotations indexes every //silofuse: directive of one package, keyed by
// file name as recorded in the FileSet.
type Annotations struct {
	fset  *token.FileSet
	lines map[string][]annotEntry // line-scoped directives per file
	funcs map[string][]funcRange  // function-scoped directives per file
	files map[string][]annotEntry // file-scoped directives per file
}

// parseDirective splits a comment into a directive name and argument, or
// returns ok=false for ordinary comments.
func parseDirective(c *ast.Comment) (name, arg string, ok bool) {
	text, found := strings.CutPrefix(c.Text, "//"+annotPrefix)
	if !found {
		return "", "", false
	}
	name, arg, _ = strings.Cut(text, " ")
	return strings.TrimSpace(name), strings.TrimSpace(arg), name != ""
}

// CollectAnnotations builds the annotation index for a package's files.
func CollectAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{
		fset:  fset,
		lines: make(map[string][]annotEntry),
		funcs: make(map[string][]funcRange),
		files: make(map[string][]annotEntry),
	}
	for _, f := range files {
		fname := fset.Position(f.Pos()).Filename
		codeLines := codeLineSet(fset, f)
		docComments := make(map[*ast.CommentGroup]bool)
		if f.Doc != nil {
			docComments[f.Doc] = true
			for _, c := range f.Doc.List {
				if name, arg, ok := parseDirective(c); ok {
					a.files[fname] = append(a.files[fname], annotEntry{name: name, arg: arg})
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			docComments[fd.Doc] = true
			for _, c := range fd.Doc.List {
				if name, arg, ok := parseDirective(c); ok {
					a.funcs[fname] = append(a.funcs[fname], funcRange{
						name:  name,
						arg:   arg,
						start: fset.Position(fd.Pos()).Line,
						end:   fset.Position(fd.End()).Line,
					})
				}
			}
		}
		for _, cg := range f.Comments {
			if docComments[cg] {
				continue
			}
			for _, c := range cg.List {
				if name, arg, ok := parseDirective(c); ok {
					line := fset.Position(c.Pos()).Line
					a.lines[fname] = append(a.lines[fname], annotEntry{
						name: name, arg: arg, line: line, trailing: codeLines[line],
					})
				}
			}
		}
	}
	return a
}

// codeLineSet records which lines of f carry non-comment tokens, so a
// directive can tell whether it trails code or stands on its own line.
// (Node positions mark the start of every token-bearing node, which covers
// any line a directive could trail.)
func codeLineSet(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup, *ast.File:
			return true
		}
		lines[fset.Position(n.Pos()).Line] = true
		return true
	})
	return lines
}

// Covers reports whether directive name applies at pos: a trailing
// line-scoped directive on the same line, a standalone directive on the
// line above, an enclosing annotated function, or a file-scoped directive.
func (a *Annotations) Covers(name string, pos token.Pos) bool {
	_, ok := a.Lookup(name, pos)
	return ok
}

// Lookup is Covers plus the directive's justification argument.
func (a *Annotations) Lookup(name string, pos token.Pos) (arg string, ok bool) {
	p := a.fset.Position(pos)
	for _, e := range a.files[p.Filename] {
		if e.name == name {
			return e.arg, true
		}
	}
	for _, fr := range a.funcs[p.Filename] {
		if fr.name == name && fr.start <= p.Line && p.Line <= fr.end {
			return fr.arg, true
		}
	}
	for _, e := range a.lines[p.Filename] {
		if e.name == name && e.covers(p.Line) {
			return e.arg, true
		}
	}
	return "", false
}

// covers reports whether the line-scoped entry applies to code on line: a
// trailing directive covers exactly its own line, a standalone comment line
// covers exactly the next line. (Anything looser bleeds annotations onto
// neighbouring struct fields or statements.)
func (e annotEntry) covers(line int) bool {
	if e.trailing {
		return e.line == line
	}
	return e.line == line-1
}
