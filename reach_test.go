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
func TestEveryInternalPackageIsReachable(t *testing.T) {
	const module = "repro"
	// imports maps a package's import path to the in-module paths its
	// files, _test.go files included, import.
	imports := map[string][]string{}
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "examples", "internal", "benchmark/gfdbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
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
			}
			imports[pkg] = deps // an entry even for a package importing nothing in-module
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

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
