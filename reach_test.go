package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsReachable is the module's scope rule: a package
// under internal/ stays iff a shipped root — a command, an example, or the
// benchmark — reaches it through imports, the test imports of reached
// packages included (that is how internal/oracle and graph/faultio stay).
// A package nothing ships still has to compile against every engine change;
// this names it so it is wired in or deleted.
//
// The same walk enforces one layering rule: internal/bench is imported by
// cmd/benchall and by nothing else, test files included. Each in-process
// measurement has one driver — a paper figure printed by benchall, or a
// RunCI metric gated against BENCH_baseline.json — and a second importer is
// how a second driver for the same workload starts.
func TestEveryInternalPackageIsReachable(t *testing.T) {
	const module = "repro"
	const harness, harnessDriver = module + "/internal/bench", module + "/cmd/benchall"
	// imports maps a package's import path to the in-module paths its
	// files, _test.go files included, import.
	imports := map[string][]string{}
	fset := token.NewFileSet()
	visit := func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Dir(path))
		deps := imports[pkg]
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if strings.HasPrefix(p, module+"/") {
				deps = append(deps, p)
			}
			if p == harness && pkg != harnessDriver {
				t.Errorf("%s imports %s; only %s may (one driver per measurement)", path, harness, harnessDriver)
			}
		}
		imports[pkg] = deps // an entry even for a package importing nothing in-module
		return nil
	}
	for _, root := range []string{"cmd", "examples", "internal", "benchmark/gfdbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			return visit(path)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The module root's own files (doc.go and this test) ship nothing, so
	// they reach nothing — but the layering rule covers them too.
	rootFiles, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range rootFiles {
		if err := visit(path); err != nil {
			t.Fatal(err)
		}
	}
	delete(imports, module+"/.")

	reached := map[string]bool{}
	var todo []string
	for pkg := range imports {
		if !strings.HasPrefix(pkg, module+"/internal/") {
			todo = append(todo, pkg)
		}
	}
	for len(todo) > 0 {
		pkg := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if reached[pkg] {
			continue
		}
		reached[pkg] = true
		todo = append(todo, imports[pkg]...)
	}

	var orphans []string
	for pkg := range imports {
		if !reached[pkg] {
			orphans = append(orphans, pkg)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("no command, example or benchmark reaches (wire in or delete):\n\t%s", strings.Join(orphans, "\n\t"))
	}
}
