// Command asaplint runs the repository's static-analysis suite
// (internal/analysis): the per-package analyzers donecheck, detcheck,
// unitcheck and obscheck, plus the module-wide call-graph analyzers
// alloccheck and domaincheck.
// It loads every package of the module from source using only the
// standard library — no go/packages, no external tools — and exits
// non-zero if any finding survives //asaplint:ignore filtering.
//
// Usage:
//
//	asaplint [-list] [-json] [pattern ...]
//
// Patterns are ./...-style package patterns relative to the module root
// (default ./...). With -json each finding is printed as one JSON object
// per line instead of the file:line:col text form.
// Exit status: 0 clean, 1 findings, 2 load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"asap/internal/analysis"
	"asap/internal/analysis/alloccheck"
	"asap/internal/analysis/detcheck"
	"asap/internal/analysis/domaincheck"
	"asap/internal/analysis/donecheck"
	"asap/internal/analysis/obscheck"
	"asap/internal/analysis/unitcheck"
)

func analyzers() []analysis.Analyzer {
	return []analysis.Analyzer{
		donecheck.New(),
		detcheck.New(),
		unitcheck.New(),
		obscheck.New(),
	}
}

func moduleAnalyzers() []analysis.ModuleAnalyzer {
	return []analysis.ModuleAnalyzer{
		alloccheck.New(),
		domaincheck.New(),
	}
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as one JSON object per line")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: asaplint [-list] [-json] [pattern ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers() {
			fmt.Printf("%-12s %s\n", a.Name(), a.Doc())
		}
		for _, a := range moduleAnalyzers() {
			fmt.Printf("%-12s %s\n", a.Name(), a.Doc())
		}
		return
	}

	os.Exit(run(flag.Args(), *jsonOut))
}

// jsonDiag is the -json wire form of one finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(patterns []string, jsonOut bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "asaplint:", err)
		return 2
	}
	loader, err := analysis.NewLoader(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asaplint:", err)
		return 2
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "asaplint:", err)
		return 2
	}

	// Module-wide analyzers see the whole module at once; their findings
	// are bucketed back to the package each position lives in, so ignore
	// filtering (and malformed-directive reporting) runs exactly once per
	// package, over the combined per-package + module findings.
	filePkg := make(map[string]*analysis.Package)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			filePkg[pkg.Fset.Position(f.Pos()).Filename] = pkg
		}
	}
	moduleDiags := make(map[*analysis.Package][]analysis.Diagnostic)
	for _, a := range moduleAnalyzers() {
		for _, d := range analysis.RunModule(a, pkgs) {
			if pkg, ok := filePkg[d.Pos.Filename]; ok {
				moduleDiags[pkg] = append(moduleDiags[pkg], d)
			}
		}
	}

	enc := json.NewEncoder(os.Stdout)
	findings := 0
	matched := 0
	for _, pkg := range pkgs {
		if !matchesAny(loader, pkg, patterns) {
			continue
		}
		matched++
		diags := moduleDiags[pkg]
		for _, a := range analyzers() {
			diags = append(diags, analysis.Run(a, pkg)...)
		}
		diags = analysis.FilterIgnored(pkg.Fset, pkg.Files, diags)
		for _, d := range diags {
			d.Pos.Filename = relPath(loader.Root(), d.Pos.Filename)
			if jsonOut {
				enc.Encode(jsonDiag{
					File:     d.Pos.Filename,
					Line:     d.Pos.Line,
					Col:      d.Pos.Column,
					Analyzer: d.Analyzer,
					Message:  d.Message,
				})
			} else {
				fmt.Println(d)
			}
			findings++
		}
	}
	if matched == 0 {
		// A typo'd pattern silently linting nothing would read as a clean
		// run in CI; treat it like an invocation error instead.
		fmt.Fprintf(os.Stderr, "asaplint: no packages match %v\n", patterns)
		return 2
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "asaplint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// matchesAny reports whether the package matches one of the ./...-style
// patterns, resolved against the module root.
func matchesAny(l *analysis.Loader, pkg *analysis.Package, patterns []string) bool {
	rel, err := filepath.Rel(l.Root(), pkg.Dir)
	if err != nil {
		return false
	}
	rel = filepath.ToSlash(rel)
	for _, p := range patterns {
		p = strings.TrimPrefix(filepath.ToSlash(p), "./")
		switch {
		case p == "..." || p == "":
			return true
		case strings.HasSuffix(p, "/..."):
			prefix := strings.TrimSuffix(p, "/...")
			if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
				return true
			}
		case rel == p:
			return true
		case pkg.Path == p:
			return true
		}
	}
	return false
}

func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
