// Package linttest is a dependency-free analysistest look-alike: it loads
// a fixture package from a testdata/src tree, runs one analyzer over it,
// and checks the reported diagnostics against `// want "regexp"` comments
// on the offending lines. Fixture trees are real modules (testdata/src has
// its own go.mod) so the loader exercises the same `go list` path as the
// CLI; GOWORK=off keeps the repo's workspace file out of the picture.
package linttest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/tools/gfdlint/internal/lint"
	"repro/tools/gfdlint/internal/load"
)

var wantRE = regexp.MustCompile(`//\s*want\s+(.+)$`)
var wantArgRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// Run loads srcdir's fixture package pkg and checks analyzer a against its
// want comments.
func Run(t *testing.T, srcdir string, a *lint.Analyzer, pkg string) {
	t.Helper()
	RunSuite(t, srcdir, []*lint.Analyzer{a}, pkg)
}

// RunSuite is Run for several analyzers at once: interactions between
// passes — like the allow-audit, which only fires for directives no other
// analyzer's suppressed finding claimed — need the whole suite in one run.
func RunSuite(t *testing.T, srcdir string, as []*lint.Analyzer, pkg string) {
	t.Helper()
	pkgs, err := load.Load(load.Config{Dir: srcdir, Env: []string{"GOWORK=off"}}, "./"+pkg)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkg, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s matched no packages", pkg)
	}

	type key struct {
		file string
		line int
	}
	type expectation struct {
		re      *regexp.Regexp
		matched bool
	}
	want := map[key][]*expectation{}

	var findings []lint.Finding
	for _, p := range pkgs {
		// Collect want comments from the fixture sources.
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				m := wantRE.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				k := key{filepath.Base(name), i + 1}
				for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(arg[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, arg[1], err)
					}
					want[k] = append(want[k], &expectation{re: re})
				}
			}
		}
		findings = append(findings, lint.RunAnalyzers(p.Fset, p.Files, p.Info, as)...)
	}

	for _, f := range findings {
		pos := f.Position(pkgs[0].Fset)
		k := key{filepath.Base(pos.Filename), pos.Line}
		matched := false
		for _, exp := range want[k] {
			if !exp.matched && exp.re.MatchString(f.Diag.Message) {
				exp.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", posString(pos.Filename, pos.Line, pos.Column), f.Diag.Message)
		}
	}
	for k, exps := range want {
		for _, exp := range exps {
			if !exp.matched {
				t.Errorf("%s:%d: no diagnostic matched want %q", k.file, k.line, exp.re)
			}
		}
	}
}

func posString(file string, line, col int) string {
	return fmt.Sprintf("%s:%d:%d", filepath.Base(file), line, col)
}
