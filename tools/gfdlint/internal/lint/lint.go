// Package lint is a minimal, dependency-free go/analysis look-alike: an
// Analyzer runs over one typechecked package (a Pass) and reports
// position-anchored Diagnostics. The shapes mirror
// golang.org/x/tools/go/analysis on purpose — if that module is ever
// vendored, each Analyzer ports by renaming imports — but the
// implementation is stdlib-only so gfdlint builds in hermetic environments.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run is invoked once per analyzed package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one typechecked package through an Analyzer.
type Pass struct {
	Files []*ast.File
	Info  *types.Info

	report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a Diagnostic tagged with the Analyzer that produced it.
type Finding struct {
	Analyzer *Analyzer
	Diag     Diagnostic
}

// Position resolves the finding's primary position.
func (f Finding) Position(fset *token.FileSet) token.Position {
	return fset.Position(f.Diag.Pos)
}

// AllowAudit is a pseudo-analyzer: when included in a RunAnalyzers suite it
// reports //gfdlint:allow directives that suppressed no diagnostic of the
// same run (nolintlint-style: a dead suppression hides nothing and rots).
// It only makes sense alongside the full suite — a directive for an
// analyzer that did not run would look unused — so the CLI includes it on
// unfiltered runs only.
var AllowAudit = &Analyzer{
	Name: "allowaudit",
	Doc:  "reports //gfdlint:allow directives that no longer suppress any diagnostic",
	Run:  func(*Pass) {}, // handled by RunAnalyzers after the real analyzers
}

// RunAnalyzers runs every analyzer over the pass's package and returns the
// surviving findings: suppressed ones (see ParseAllowDirectives) are
// filtered here so every driver (CLI, fixture tests) sees the same set.
// If the suite includes AllowAudit, a finding is added for every allow
// directive that suppressed nothing.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, info *types.Info, analyzers []*Analyzer) []Finding {
	allow := ParseAllowDirectives(fset, files)
	var out []Finding
	audit := false
	for _, a := range analyzers {
		if a == AllowAudit {
			audit = true
			continue
		}
		pass := &Pass{Files: files, Info: info}
		pass.report = func(d Diagnostic) {
			if allow.Allows(a.Name, fset.Position(d.Pos)) {
				return
			}
			out = append(out, Finding{Analyzer: a, Diag: d})
		}
		a.Run(pass)
	}
	if audit {
		for _, d := range allow.Unused() {
			names := strings.Join(d.Names, ", ")
			if names == "*" {
				names = "any"
			}
			out = append(out, Finding{Analyzer: AllowAudit, Diag: Diagnostic{
				Pos:     d.pos,
				Message: fmt.Sprintf("unused //gfdlint:allow directive: it suppresses no %s diagnostic in this run; remove it", names),
			}})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := out[i].Diag.Pos, out[j].Diag.Pos
		if pi != pj {
			return pi < pj
		}
		return out[i].Analyzer.Name < out[j].Analyzer.Name
	})
	return out
}

// AllowDirective is one parsed //gfdlint:allow comment.
type AllowDirective struct {
	Names []string // analyzer names it suppresses ("*" = all)
	pos   token.Pos
	used  bool
}

// AllowSet records //gfdlint:allow suppressions per file line, and tracks
// which directives actually suppressed something (for the unused audit).
type AllowSet struct {
	directives []*AllowDirective
	byLine     map[string]map[int][]*AllowDirective // filename -> line -> directives
}

// ParseAllowDirectives scans file comments for suppression directives of
// the form
//
//	//gfdlint:allow name1,name2 -- reason
//
// A directive suppresses matching diagnostics reported on its own line
// (trailing comment) or on the line directly below (standalone comment).
func ParseAllowDirectives(fset *token.FileSet, files []*ast.File) *AllowSet {
	set := &AllowSet{byLine: map[string]map[int][]*AllowDirective{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//gfdlint:allow")
				if !ok {
					continue
				}
				text = strings.TrimSpace(text)
				if i := strings.Index(text, "--"); i >= 0 {
					text = strings.TrimSpace(text[:i])
				}
				names := strings.FieldsFunc(text, func(r rune) bool { return r == ',' || r == ' ' })
				if len(names) == 0 {
					names = []string{"*"}
				}
				d := &AllowDirective{Names: names, pos: c.Pos()}
				set.directives = append(set.directives, d)
				pos := fset.Position(c.Pos())
				lines := set.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]*AllowDirective{}
					set.byLine[pos.Filename] = lines
				}
				// Trailing directives cover their own line; standalone
				// directives cover the next line. Covering both is
				// harmless and keeps the parser position-free.
				lines[pos.Line] = append(lines[pos.Line], d)
				lines[pos.Line+1] = append(lines[pos.Line+1], d)
			}
		}
	}
	return set
}

// Allows reports whether a diagnostic from the named analyzer at pos is
// suppressed, marking every directive that matched as used.
func (s *AllowSet) Allows(name string, pos token.Position) bool {
	hit := false
	for _, d := range s.byLine[pos.Filename][pos.Line] {
		for _, n := range d.Names {
			if n == "*" || n == name {
				d.used = true
				hit = true
			}
		}
	}
	return hit
}

// Unused returns the directives that suppressed nothing, in source order.
func (s *AllowSet) Unused() []*AllowDirective {
	var out []*AllowDirective
	for _, d := range s.directives {
		if !d.used {
			out = append(out, d)
		}
	}
	return out
}
