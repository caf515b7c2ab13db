package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// ignorePrefix introduces a suppression directive. The full form is
//
//	//asaplint:ignore <analyzer>[,<analyzer>...] <reason>
//
// where each <analyzer> is an analyzer name or "all", and <reason> is a
// non-empty justification. A directive suppresses findings of the named
// analyzers on its own line and on the line immediately below it (so it
// can sit inline after the flagged code or on its own line above it).
// The comma form lets one line silence two analyzers that trip on the
// same construct (a hot-path map lookup flagged by both detcheck and
// alloccheck, say) without stacking directives. A directive missing the
// analyzer or the reason is itself reported as a finding, so
// suppressions can never silently rot.
const ignorePrefix = "asaplint:ignore"

type ignoreDirective struct {
	file      string
	line      int
	analyzers []string
	reason    string
	pos       token.Pos
}

func (d ignoreDirective) covers(analyzer string) bool {
	for _, a := range d.analyzers {
		if a == analyzer || a == "all" {
			return true
		}
	}
	return false
}

// collectIgnores extracts the ignore directives of a file set. Malformed
// directives are returned as diagnostics.
func collectIgnores(fset *token.FileSet, files []*ast.File) ([]ignoreDirective, []Diagnostic) {
	var dirs []ignoreDirective
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, ignorePrefix)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "asaplint",
						Message:  "malformed ignore directive: want //asaplint:ignore <analyzer> <reason>",
					})
					continue
				}
				dirs = append(dirs, ignoreDirective{
					file:      pos.Filename,
					line:      pos.Line,
					analyzers: strings.Split(fields[0], ","),
					reason:    strings.Join(fields[1:], " "),
					pos:       c.Pos(),
				})
			}
		}
	}
	return dirs, bad
}

// FilterIgnored drops findings suppressed by //asaplint:ignore directives
// in files and appends a diagnostic for each malformed directive. The
// returned slice is sorted.
func FilterIgnored(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	dirs, bad := collectIgnores(fset, files)
	suppressed := func(d Diagnostic) bool {
		for _, dir := range dirs {
			if dir.file != d.Pos.Filename || !dir.covers(d.Analyzer) {
				continue
			}
			if d.Pos.Line == dir.line || d.Pos.Line == dir.line+1 {
				return true
			}
		}
		return false
	}
	var kept []Diagnostic
	for _, d := range diags {
		if !suppressed(d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, bad...)
	SortDiagnostics(kept)
	return kept
}

// IgnoreMatcher returns a predicate reporting whether a position is
// covered by an //asaplint:ignore directive for the given analyzer in
// files. Module-wide analyzers use it during analysis — not just as a
// post-filter — because a directive can carry semantics beyond
// suppression: alloccheck stops hot-path propagation at an ignored call
// site, so the directive prunes the callee's whole subtree from the
// proof obligation.
func IgnoreMatcher(fset *token.FileSet, files []*ast.File, analyzer string) func(token.Pos) bool {
	dirs, _ := collectIgnores(fset, files)
	var mine []ignoreDirective
	for _, d := range dirs {
		if d.covers(analyzer) {
			mine = append(mine, d)
		}
	}
	return func(pos token.Pos) bool {
		p := fset.Position(pos)
		for _, d := range mine {
			if d.file == p.Filename && (p.Line == d.line || p.Line == d.line+1) {
				return true
			}
		}
		return false
	}
}
