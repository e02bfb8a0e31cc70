// Command silofuse-vet runs the repository's source analyzers
// (internal/analysis: maprange, floateq, precisioncast) over a module tree
// and reports findings as
//
//	file:line:col: analyzer: message
//
// It exits 0 on a clean tree, 1 when any analyzer reports a diagnostic, and
// 2 on load/type-check failure. `make lint` runs it alongside go vet and
// gofmt -l, and the internal/analysis self-check test runs it over this
// repository itself, so the tree must stay clean.
//
// Usage:
//
//	silofuse-vet [-list] [dir]
//
// dir defaults to the current directory and must contain go.mod.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"silofuse/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: silofuse-vet [-list] [dir]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "silofuse-vet: %v\n", err)
		os.Exit(2)
	}
	diags := analysis.Run(analyzers, pkgs)
	absRoot, _ := filepath.Abs(root)
	for _, d := range diags {
		if rel, err := filepath.Rel(absRoot, d.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			d.Pos.Filename = rel
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "silofuse-vet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
