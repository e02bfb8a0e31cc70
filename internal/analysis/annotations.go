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
	// AnnotNoAlloc marks a function as a steady-state hot-path kernel: its
	// body must stay free of allocating constructs (make/append/new,
	// composite literals, closures, string concatenation).
	AnnotNoAlloc = "noalloc"
	// AnnotWalltimeOK exempts a wall-clock read in a deterministic package.
	// It requires a justification string.
	AnnotWalltimeOK = "walltime-ok"
	// AnnotBitwiseOK exempts an exact float comparison — the warm-vs-cold
	// bitwise-parity tests and deliberate sentinel comparisons.
	AnnotBitwiseOK = "bitwise-ok"
	// AnnotPrecisionOK exempts a float64<->float32 conversion outside the
	// blessed precision boundary (the silo/codec package and the tensor
	// conversion kernels). It requires a justification string.
	AnnotPrecisionOK = "precision-ok"
	// AnnotGuardedBy declares, on a struct field's line (trailing or the
	// line above), the sibling mutex field that must be held around every
	// access of the field: //silofuse:guardedby <mu>. The argument is the
	// mutex field's name and is required; the named field must exist in the
	// same struct and be a sync.Mutex or sync.RWMutex.
	AnnotGuardedBy = "guardedby"
	// AnnotLocked marks, in a function's doc comment, that the function is
	// only ever called with the named mutex already held
	// (//silofuse:locked <mu>) — the escape hatch for helpers that touch
	// guarded fields without locking themselves. The mutex name is required.
	AnnotLocked = "locked"
	// AnnotFireAndForget justifies a go statement with no visible
	// termination path (no stop-channel select, no WaitGroup tracking):
	// //silofuse:fire-and-forget <why>. The justification is required.
	AnnotFireAndForget = "fire-and-forget"
	// AnnotUnbufferedOK justifies an unbuffered make(chan T) in a hot-path
	// package, where a rendezvous channel stalls the sender until a receiver
	// arrives. It requires a justification string.
	AnnotUnbufferedOK = "unbuffered-ok"
	// AnnotChanOK exempts a chansafety close/send/receive finding — a
	// close-then-send pair or closed-channel receive whose safety argument
	// lives outside what the analyzer can see. It requires a justification.
	AnnotChanOK = "chan-ok"
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

// LookupField finds a line-scoped directive for a struct field at pos —
// trailing the field's line or standing alone on the line above. Unlike
// Lookup it ignores function- and file-scoped directives, which have no
// field-annotation meaning.
func (a *Annotations) LookupField(name string, pos token.Pos) (arg string, ok bool) {
	p := a.fset.Position(pos)
	for _, e := range a.lines[p.Filename] {
		if e.name == name && e.covers(p.Line) {
			return e.arg, true
		}
	}
	return "", false
}

// FuncAnnotated reports whether fd's doc comment carries the directive.
func FuncAnnotated(name string, fd *ast.FuncDecl) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if n, _, ok := parseDirective(c); ok && n == name {
			return true
		}
	}
	return false
}

// FuncAnnotArgs returns the argument of every occurrence of the directive in
// fd's doc comment (a function may be //silofuse:locked under more than one
// mutex). ok is false when the directive is absent.
func FuncAnnotArgs(name string, fd *ast.FuncDecl) (args []string, ok bool) {
	if fd == nil || fd.Doc == nil {
		return nil, false
	}
	for _, c := range fd.Doc.List {
		if n, arg, found := parseDirective(c); found && n == name {
			args = append(args, arg)
			ok = true
		}
	}
	return args, ok
}
